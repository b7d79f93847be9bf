(** A node's local copy of the DAG.

    The store is a map from slots — (round, source) pairs — to delivered
    vertices, plus the traversals the Sailfish commit rules need:
    strong-path reachability ({!strong_path}, the indirect-commit test) and
    deterministic causal-history linearisation ({!causal_history}, the
    ordering step).

    {2 Invariants}

    - {b Closure}: a vertex is inserted only after all its parents (strong
      and weak edges) are present — the consensus layer buffers
      out-of-order arrivals behind {!missing_parents} — so every
      reachability query runs on a closed sub-DAG and needs no
      missing-edge handling.
    - {b Slot uniqueness}: one slot holds at most one vertex; the RBC layer
      guarantees conflicting vertices never both deliver, and {!add}
      rejects a second, different vertex for an occupied slot.
    - {b GC horizon}: {!prune_below} discards ordered rounds; references
      below the horizon count as present ({!missing_parents}) because
      their subtree was already ordered and collected.

    Slots live in a {!Clanbft_util.Round_rows}: one [n]-wide row per
    round with its occupancy count, the rounds in flight cached, so slot
    lookup is an array index, {!vertices_at} is O(n) and {!prune_below}
    drops whole rows at a cost proportional to the rows held, however far
    the floor jumps. Observability
    of insertions/commits lives one layer up (see
    {!Clanbft_consensus.Sailfish} and [docs/OBSERVABILITY.md] —
    [dag_vertices_inserted], [dag_vertices_committed],
    [vertex_deliver]/[vertex_commit] trace events). *)

open Clanbft_types

type t

val create : n:int -> t
(** An empty DAG for a tribe of [n] parties (sources range over
    [0 .. n-1]). *)

val n : t -> int

val add : t -> Vertex.t -> unit
(** Insert a vertex whose parents are all present. Idempotent for the
    identical vertex.

    @raise Invalid_argument if the slot is already occupied by a
    {e different} vertex (an equivocation that RBC should have prevented)
    or a parent is missing (caller failed to consult
    {!missing_parents}). *)

val mem : t -> round:int -> source:int -> bool

val find : t -> round:int -> source:int -> Vertex.t option
(** Allocates the [Some]; the store's own per-copy probes ({!mem},
    {!parents_present}, {!strong_path}, {!causal_history}) allocate
    nothing. *)

val absent : Vertex.t
(** A vertex no store holds, to mark an empty slot without an option. *)

val find_ref : t -> Vertex.vref -> Vertex.t option
(** Lookup by reference; [None] also when the stored vertex's digest does
    not match the reference (cannot happen for RBC-delivered data). *)

val missing_parents : t -> Vertex.t -> Vertex.vref list
(** Parents not yet in the store — the insertion guard. References below
    the {!prune_below} horizon count as present (their subtree was ordered
    and collected). *)

val parents_present : t -> Vertex.t -> bool
(** [parents_present t v] ⇔ [missing_parents t v = []], without building
    the list: index-based edge probes with early exit, using the per-round
    occupancy count to reject a whole empty previous round at once. This
    is the hot-path form — every insertion attempt and every
    pending-vertex wake-up runs it, so at [n = 150] it must not allocate. *)

val vertices_at : t -> int -> Vertex.t list
(** All vertices of a round, ascending source order. *)

val count_at : t -> int -> int

val strong_path : t -> Vertex.t -> round:int -> source:int -> bool
(** Is (round, source) reachable from the given vertex following strong
    edges only? (Used for the indirect leader-commit rule.) Walks
    backwards round by round, visiting each slot at most once:
    O(vertices between the two rounds). *)

val causal_history :
  t -> Vertex.t -> skip:(round:int -> source:int -> bool) -> Vertex.t list
(** Every vertex reachable from the argument (inclusive, via strong and
    weak edges) for which [skip] is false, in deterministic total order:
    ascending (round, source). This is the paper's "order the causal
    history of the committed leader" step; determinism across replicas
    follows from DAG closure + agreement. *)

val highest_round : t -> int
(** Largest round holding at least one vertex; -1 when empty. *)

val floor : t -> int
(** Current GC horizon (0 until {!prune_below} raises it). *)

val prune_below : t -> round:int -> unit
(** Drop all vertices with [vertex.round < round] — garbage collection
    after ordering. Callers must no longer query below this horizon. *)

val size : t -> int
(** Number of vertices currently stored. *)
