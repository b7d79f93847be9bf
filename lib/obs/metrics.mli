(** Named metric registry.

    A {!registry} owns a flat namespace of instruments, each identified by a
    metric {e name} plus a (possibly empty) set of [(key, value)] {e labels}
    — the Prometheus data model, minus the scraping. Protocol code resolves
    a handle once (at node construction time) and then updates it with plain
    integer/float operations, so the per-event cost is identical to the
    bespoke [int ref] counters this registry replaces.

    Three instrument kinds:

    - {!counter}: a monotonically increasing integer (bytes sent, messages
      received, pull retries);
    - {!gauge}: a float that goes up and down (current uplink backlog);
    - {!histogram}: a fixed-bucket {!Clanbft_util.Stats.Histogram}
      (commit latency, message sizes).

    Creation is idempotent: registering the same kind under the same name
    and label set returns the {e existing} instrument, so independent
    components can share a metric without coordination. Registering the
    same (name, labels) under a {e different} kind raises
    [Invalid_argument].

    {2 Determinism}

    Instruments are stored in a hash table, but {!dump} and {!to_json}
    iterate in sorted (name, labels) order, so the exported file is a
    deterministic function of the run. Nothing here reads wall-clock time
    or randomness. *)

type registry

val create_registry : unit -> registry

(** {1 Instruments} *)

type counter
type gauge
type histogram

val counter : registry -> ?labels:(string * string) list -> string -> counter
(** Resolve (or create) the counter [name{labels}]. Label order is
    irrelevant: labels are sorted by key internally. *)

val gauge : registry -> ?labels:(string * string) list -> string -> gauge

val histogram :
  registry ->
  ?labels:(string * string) list ->
  buckets:float array ->
  string ->
  histogram
(** [buckets] are upper edges as in {!Clanbft_util.Stats.Histogram.create}.
    When the instrument already exists, [buckets] is ignored and the
    existing histogram (with its original layout) is returned. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val reset_counter : counter -> unit
(** Zero the counter. Exported for harnesses that measure deltas between
    run sections ([Net.reset_metrics]); protocol code never resets. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit

val hist : histogram -> Clanbft_util.Stats.Histogram.t
(** The underlying histogram, for direct querying ([quantile], [mean], …). *)

(** {1 Inspection and export} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Clanbft_util.Stats.Histogram.t

val find : registry -> ?labels:(string * string) list -> string -> value option
(** Look up an instrument without creating it. *)

val fold :
  registry ->
  init:'a ->
  f:('a -> name:string -> labels:(string * string) list -> value -> 'a) ->
  'a
(** Fold over every instrument in sorted (name, labels) order. *)

val to_json : registry -> string
(** The whole registry as one pretty-printed JSON object
    [{"metrics": [...]}] with one entry per instrument, in sorted order.
    Counters export ["value"]; gauges ["value"]; histograms ["count"],
    ["sum"], ["mean"], a ["buckets"] array of [{"le": edge, "count": n}]
    (non-cumulative) and a ["cumulative"] array over the same edges with
    Prometheus-style running totals (its last count equals ["count"], so
    percentiles can be recomputed externally). The overflow bucket's
    ["le"] is the string ["+inf"]; non-finite numbers (a [nan] mean, an
    infinite gauge) are exported as [null].
    The schema is documented with a worked example in
    [docs/OBSERVABILITY.md]. *)

val write_json : registry -> string -> unit
(** {!to_json} to a file. *)
