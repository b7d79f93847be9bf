(** Deterministic hierarchical self-profiler.

    [Prof] attributes the simulator's own CPU time and allocation to named
    sections, nested into a call tree: per-section call counts, exclusive
    ("self") and inclusive wall time on the monotonic clock, and minor/major
    allocated words from the GC counters. It is the tool ROADMAP item 1
    reaches for — "profile a traced n=150 run, then attack what it names" —
    without an external profiler's sampling noise or symbolization step.

    {2 Discipline}

    Section handles are resolved once, at module initialisation, exactly
    like {!Metrics} instruments:

    {[
      let sec_insert = Prof.section "dag.insert"

      let add t v = Prof.span sec_insert (fun () -> really_add t v)
    ]}

    The profiler is {b off by default}: a disabled {!enter}/{!leave}/{!span}
    costs one load-and-branch and allocates nothing, so instrumented hot
    paths keep their committed perf baseline and all pinned commit
    fingerprints stay byte-identical (profiling is pure observation — it
    never draws randomness or schedules events).

    {2 Determinism contract}

    For a deterministic (fixed-seed, single-domain) run, call counts and
    allocated-word figures are {b byte-identical across runs}: OCaml
    allocation is a deterministic function of the program, and the profiler
    calibrates away its own constant per-span probe cost (the boxes
    allocated by the [Gc.counters] reads) so the reported words
    are the instrumented code's own. Minor words are exact; major words
    count direct major-heap allocation only, not promotions, whose timing
    depends on the heap the run started from. Wall-time fields
    ([*_ns]) are real-clock measurements and are {b non-deterministic}; CI
    comparisons must strip them (see docs/PROFILING.md).

    Known attribution edge: the first visit of a new call path allocates
    its tree node inside the {e parent}'s window, so a parent's self-words
    can exceed the sum of its code's allocations by a few words per distinct
    child path (constant per path, hence still deterministic).

    {2 Concurrency}

    State is global and unsynchronized. Enable the profiler only around
    sequential (single-domain) runs; profiling under [Pool.map] domains is
    unsupported and will corrupt the numbers. *)

type section
(** An interned section handle (cheap int). *)

val section : string -> section
(** [section name] interns [name] and returns its handle; idempotent. The
    name must be non-empty and must not contain [';'], spaces or newlines
    (it becomes a folded-stack frame). At most 512 distinct sections. *)

val set_enabled : bool -> unit
(** Toggle the global switch. The first [set_enabled true] runs a one-time
    deterministic calibration of the per-span probe overhead (a few
    microseconds); enabling does not reset accumulated data. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all accumulated counts, times, words and the call tree. Section
    handles stay valid. Must not be called between an {!enter} and its
    {!leave}. *)

val enter : section -> unit
(** Open a span. No-op (one branch) when disabled. Spans must nest: every
    [enter s] is closed by a [leave s] in LIFO order. *)

val leave : section -> unit
(** Close the innermost span, which must be for the same section.
    @raise Failure on unbalanced or mismatched leave (when enabled). *)

val span : section -> (unit -> 'a) -> 'a
(** [span s f] runs [f ()] inside a span, closing it on exceptions too.
    When disabled this is a tail call to [f]. *)

type row = {
  name : string;
  calls : int;
  self_ns : int;  (** wall time excluding child spans — non-deterministic *)
  incl_ns : int;  (** wall time including child spans — non-deterministic *)
  self_minor_words : int;  (** minor words allocated, excluding children *)
  incl_minor_words : int;
  self_major_words : int;
      (** words allocated directly on the major heap, excluding children;
          promotions are not counted (they depend on when minor
          collections land) *)
  incl_major_words : int;
}

val report : unit -> row list
(** Per-section aggregates, sorted by [name] (a deterministic order —
    sorting by self time would make the row order machine-dependent). Rows
    with zero calls are omitted. Inclusive figures count each section once
    per outermost span (recursive re-entries are not double-counted). *)

val folded : unit -> string
(** Folded-stack output, one ["root;a;b <self_us>"] line per call-tree
    path in depth-first order, consumable by [flamegraph.pl] and
    speedscope. Values are self wall microseconds (non-deterministic). *)

val census : (string * Obj.t list) list -> (string * int) list
(** [census rows] measures the heap words reachable from each row's roots
    ([Obj.reachable_words]), charging a value to the first row that
    reaches it: a row gets what its roots add to the rows before it. The
    rows therefore sum to the words reachable from all roots together.
    Costs one heap pass per row, over everything the earlier rows reach.
    See docs/PROFILING.md. *)

val to_json : ?census:(string * int) list -> unit -> string
(** [clanbft/profile/v1] JSON: the report rows (sorted by name), the call
    tree, and the optional {!census} rows (measured reachable words, in
    the order given). All [*_ns] fields are labelled non-deterministic in
    docs and must be jq-stripped before byte comparisons; everything else
    is deterministic. *)

val table : ?census:(string * int) list -> unit -> string
(** Human-readable self/total table sorted by self time (descending), plus
    the {!census} rows, measured reachable words in the order given, and
    their total when given. *)

val probe_overhead : unit -> int * int
(** [(minor, major)] words the calibration measured for one leaf span's own
    probes — exposed for tests; [(0, 0)] before the first calibration. *)
