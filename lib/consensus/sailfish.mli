(** Sailfish-style DAG BFT consensus with clan-based dissemination.

    One module implements all three protocols of the evaluation (§7): the
    {!Clanbft_types.Config.dissemination} mode selects between baseline
    Sailfish ([Full]), single-clan Sailfish and multi-clan Sailfish; the
    consensus logic — DAG construction, leader commit rule, total ordering —
    is byte-for-byte identical across modes, exactly as the paper's generic
    technique prescribes ("the DAG construction, commit, and ordering rules
    remain unchanged").

    {2 Dissemination}

    Each (round, source) slot runs one merged broadcast instance (§5):
    round-optimal signed RBC for the vertex fused with the two-round
    tribe-assisted RBC for the block. VAL carries the vertex to everyone and
    the block only to the proposer's payload clan; clan members ECHO only
    once they hold {e both}; an ECHO certificate (2f+1 ECHOs, ≥ fc+1 from
    the clan) completes delivery. Missing blocks and vertices are pulled off
    the critical path and never block round progression. The instance runs
    on [Clanbft_rbc.Rbc_core], like the standalone RBC families; this
    module supplies its payload and hooks (the payload clan, and under
    sparse edges the f+1 certificate relayers).

    {2 Consensus rules}

    Round-robin leaders. A party advances from round r on delivering 2f+1
    round-r vertices including the leader's — or, after its timer fires, on
    a timeout certificate. Round-(r+1) vertices vote for the round-r leader
    by carrying a strong edge to it; a leader vertex commits {e directly}
    when 2f+1 round-(r+1) VAL messages with such an edge arrive (1 RBC + δ
    — Sailfish's 3δ path), and {e indirectly} when a later committed leader
    reaches it by strong paths. Committing a leader totally orders its
    not-yet-ordered causal history by ascending (round, source). The
    round-(r+1) leader proposes without an edge to the round-r leader only
    with a no-vote certificate; non-leaders justify a missing leader edge
    with a timeout certificate (Fig. 4's [nvc] / [tc] fields). *)

open Clanbft_types
open Clanbft_crypto

type params = {
  round_timeout : Clanbft_sim.Time.span;
      (** timer before a party gives up on a round's leader *)
  gc_depth : int;  (** rounds kept below the last committed leader *)
}
(** Pull pacing is fixed: a 150 ms re-request cadence (state sync backs
    off from it), 8 served pulls per (slot, peer), 64-round sync chunks. *)

val default_params : params

type t

val create :
  me:int ->
  config:Config.t ->
  keychain:Keychain.t ->
  engine:Clanbft_sim.Engine.t ->
  net:Msg.t Clanbft_sim.Net.t ->
  ?params:params ->
  ?obs:Clanbft_obs.Obs.t ->
  make_block:(round:int -> Block.t) ->
  on_commit:(leader:Vertex.t -> Vertex.t list -> unit) ->
  ?on_block:(Block.t -> unit) ->
  ?on_deliver:(Vertex.t -> unit) ->
  ?on_propose:(round:int -> unit) ->
  unit ->
  t
(** Wires the node to the network (installs its handler) but does not start
    it. [make_block] is the mempool hook, called once per round this node
    proposes a block in; it returns that round's block, whose proposer and
    round must be this node's and the round asked for ([Invalid_argument]
    otherwise). [on_commit] receives each newly committed leader and its
    newly ordered causal history (ascending (round, source)) — the
    a_deliver stream. [on_block] fires at most once per slot, when
    the block of its certified vertex becomes locally available to a
    clan member (dissemination or pull), never for a replayed one.

    [obs] (default {!Clanbft_obs.Obs.disabled}) receives RBC phase
    transitions (VAL accepted / ECHO sent / certificate), vertex
    deliveries and commits as trace events, and maintains the per-node
    counters [sailfish_pull_retries{node}], [dag_vertices_inserted{node}],
    [dag_vertices_committed{node}], [recovery_rounds_fetched{node}] and the
    gauge [recovery_wall_ms{node}]. Tracing never perturbs the run: with
    the same seed, a traced and an untraced run commit bit-identical
    sequences.

    [on_deliver] is the write-ahead-log hook: it fires with every vertex
    {e immediately before} it enters the DAG store, in insertion order (so
    the journal is parent-closed — every prefix of it is replayable).
    [on_propose] fires with the round number immediately before this
    node's VAL messages for that round are sent; journalling it forbids
    re-proposing the round after a crash (no equivocation). *)

val start : t -> unit
(** Propose the round-0 vertex and arm the first timer. *)

(** {1 Crash recovery}

    Tearing a replica down and bringing it back is a four-step dance (see
    [docs/RECOVERY.md]): {!halt} the old instance; re-[create] a fresh one
    (which re-installs the network handler, orphaning the old instance);
    replay the write-ahead log through {!replay_block}, {!replay_vertex}
    and {!note_proposed}; then {!start_recovery} instead of {!start}. *)

val halt : t -> unit
(** Permanently silence this instance: incoming messages are dropped and
    every pending timer / fetch / sync callback becomes a no-op. Models
    the process dying; pair with [Persist.crash] for its disk. *)

val replay_block : t -> Block.t -> unit
(** Restore one journalled block into its slot (call before the vertices
    that carry it). The block counts as stored: [on_block] never fires
    for the slot again. *)

val replay_vertex : t -> Vertex.t -> unit
(** Restore one journalled (hence RBC-delivered) vertex: the slot is
    rebuilt in its terminal state — no echoes or certificates are re-sent
    — the leader vote is re-registered and the vertex re-inserted, firing
    [on_commit] for everything the replayed DAG re-orders. Replaying the
    log in append order yields a commit sequence that is a prefix of the
    pre-crash one. Vertices below the GC floor are skipped. *)

val note_proposed : t -> round:int -> unit
(** Record a journalled own-proposal marker: the node will never propose
    in [round] (or below) again, which rules out equivocation even though
    the original VAL may still be in flight. *)

val start_recovery : t -> unit
(** Start in state-sync mode instead of {!start}: announce the local
    frontier with [Sync_request]s (round-robin over peers, capped
    exponential backoff), insert the streamed certified vertices, and
    advance the round clock without the leader-or-TC pacing condition.
    The node proposes only once caught up: a peer replied, the DAG covers
    every round a peer reported, and the round clock has passed them —
    from then on it behaves exactly like a {!start}ed node. *)

val snapshot_joined : t -> bool
(** True if recovery had to skip a garbage-collected gap: every reachable
    peer had pruned past this node's frontier, so it adopted a peer's GC
    floor and its post-recovery ledger starts there instead of at the
    journal's end. Such a node's full-history fingerprint is not
    comparable to the others'. *)

val me : t -> int
val current_round : t -> int
val last_committed_round : t -> int
val committed_count : t -> int
(** Total vertices ordered so far. *)

val block_of : t -> round:int -> source:int -> Block.t option
(** The slot's stored block: its certified vertex's, held by payload-clan
    members once the slot is delivered with it or replayed; [None] before
    that, for vertex-only slots, outside the clan and below the GC floor. *)

val dag_size : t -> int

val heap_roots : t list -> (string * Obj.t list) list
(** {!Clanbft_obs.Prof.census} rows for these replicas' consensus layer,
    in charging order: [consensus.blocks] (the stored slots' blocks),
    [dag.store], [consensus.rbc] (the RBC instance tables) and
    [consensus.state] (pending vertices, waiters, the per-round vote,
    share and certificate table). Each row holds every replica's roots; no root reaches a
    closure, the engine or the network. See docs/PROFILING.md. *)

(** Low-level hooks for fault-injection tests: a Byzantine "node" is built
    by driving the network directly, but tests also need to peek at honest
    state. *)

val vertex_of : t -> round:int -> source:int -> Vertex.t option

val rbc_footprint : t -> int * int
(** (broadcast instances, digests seen) this node holds; see
    {!Clanbft_rbc.Rbc_core.footprint}. *)

type slot
(** This layer's side of a merged vertex+block instance. *)

val rbc_instances : t -> (slot Clanbft_rbc.Rbc_core.inst * Vertex.t option) list
(** Every broadcast instance this node holds, with the vertex its slot
    holds, in unspecified order. *)

