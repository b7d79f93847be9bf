(** A full replica: consensus + mempool + execution + persistence.

    Wires a {!Clanbft_consensus.Sailfish} instance to the node-local
    services: block proposals draw from the mempool (or a synthetic
    workload generator), committed vertices enter an execution queue that
    drains in a_deliver order as blocks become locally available, executed
    transactions produce client receipts, and delivered data is charged to
    the simulated persistent store.

    In clan modes a replica executes a block only if it belongs to the
    proposer's clan; other clans' blocks are folded into the state chain by
    digest ({!Execution.skip_block}), so the global order stays common
    while payloads stay partitioned — the multi-clan execution model of
    §6. *)

open Clanbft_types
open Clanbft_crypto

type t

val create :
  me:int ->
  config:Config.t ->
  keychain:Keychain.t ->
  engine:Clanbft_sim.Engine.t ->
  net:Msg.t Clanbft_sim.Net.t ->
  ?params:Clanbft_consensus.Sailfish.params ->
  ?obs:Clanbft_obs.Obs.t ->
  ?persist:Persist.t ->
  ?generate:(round:int -> Block.t) ->
  ?on_commit:(leader:Vertex.t -> Vertex.t list -> unit) ->
  ?on_deliver:(Vertex.t -> unit) ->
  ?on_txn_executed:(Transaction.t -> Digest32.t -> unit) ->
  unit ->
  t
(** [generate] overrides the mempool as the proposal source: it returns
    this node's block for the round (synthetic workloads stamp
    transactions at proposal time, like §7's load generator); a mempool
    proposal carries at most 6000 transactions, the paper's maximum.
    [on_commit] observes the raw a_deliver stream; [on_deliver] each
    vertex the broadcast layer delivers, after it is journalled;
    [on_txn_executed] observes execution receipts (clan members only).
    [obs] is forwarded to the consensus instance. *)

val start : t -> unit

(** {1 Crash recovery}

    When the node was given a [persist] store it maintains a write-ahead
    log there: every RBC-delivered vertex is journalled before the
    consensus layer acts on it, locally available blocks are journalled
    with their payload, and each round this node proposes in is marked
    before the proposal leaves. The restart sequence is: {!stop} the dying
    node; [create] a fresh one over the {e same} [Persist.t]; {!recover}
    it from the log and rejoin (instead of [start]). See
    [docs/RECOVERY.md]. *)

val stop : t -> unit
(** Tear the replica down: the consensus instance is halted (messages
    dropped, timers dead) and the persistent store crashes — queued
    writes that were not yet durable are lost. *)

val recover : t -> unit
(** Replay the write-ahead log into a freshly created node — blocks
    first, then vertices in journal order (re-committing and re-executing
    the pre-crash ledger prefix), then own-proposal markers (equivocation
    guard); nothing without a persistent store — and enter state sync
    ({!Clanbft_consensus.Sailfish.start_recovery}): fetch certified
    vertices past the journal's end from peers and start proposing only
    once caught up. *)

val me : t -> int
val submit : t -> Transaction.t -> bool
(** Client-facing mempool entry; [false] on back-pressure. *)

val consensus : t -> Clanbft_consensus.Sailfish.t
val execution : t -> Execution.t
val executed_txns : t -> int

val heap_roots : t list -> (string * Obj.t list) list
(** {!Clanbft_obs.Prof.census} rows for these replicas, in charging
    order: the consensus layer's ({!Clanbft_consensus.Sailfish.heap_roots}),
    then [mempool] and [wal] (empty without persistence). No root reaches
    a closure, the engine or the network. *)
