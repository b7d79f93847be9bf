(** A Sailfish deployment: one replica stack per node id on the simulator,
    shared by every place that runs consensus (the [Runner], the checker's
    Sailfish worlds, the consensus and SMR tests and the examples).

    The world also owns the one commit-prefix rule: every replica's commit
    sequence is recorded in a {!Ledger}, and each commit of a compared
    replica is checked against the first compared replica that reached
    that position. *)

open Clanbft_types
open Clanbft_sim

type divergence = {
  node : int;
  position : int;  (** 0-based index into [node]'s commit sequence *)
  slot : int * int;  (** the (round, source) [node] committed there *)
  canonical : int * int;  (** what the first replica to reach [position] committed *)
}

val describe : divergence -> string
(** ["node 3 committed (0,1) at position 0 where the canonical order has
    (0,0)"]. *)

(** Per-replica commit sequences, checked against one canonical order. *)
module Ledger : sig
  type t

  val create : n:int -> t

  val commit : t -> int -> checked:bool -> round:int -> source:int -> unit
  (** Append one committed vertex to a replica's sequence. A [checked]
      commit at a position no checked commit reached yet extends the
      canonical order; at any other position it must match it, and the
      first mismatch is recorded. *)

  val reset : t -> int -> unit
  (** The replica rebuilds its sequence from genesis (WAL replay). *)

  val sequence : t -> int -> (int * int) array
  (** The replica's committed (round, source) slots, in order. *)

  val chain : t -> int -> int array
  (** Chained prefix hashes: element [i] hashes the prefix of length [i+1]. *)

  val fingerprint : t -> int list -> int
  (** One hash of the listed replicas' whole sequences: equal fingerprints
      ⇔ identical sequences, up to hash collision. *)

  val divergence : t -> divergence option
  (** The first divergence from the canonical order, if any. *)
end

type t = {
  engine : Engine.t;
  net : Msg.t Net.t;
  keychain : Clanbft_crypto.Keychain.t;
  nodes : Node.t option array;
      (** [None] at ids that run no replica; a restart replaces the entry *)
  persist : Persist.t array;  (** one store per id with persistence, else empty *)
  unchecked : int list;
  ledger : Ledger.t;
}

val create :
  ?engine:Engine.t ->
  ?obs:Clanbft_obs.Obs.t ->
  topology:Topology.t ->
  net:Net.config ->
  seed:int64 ->
  ?params:Clanbft_consensus.Sailfish.params ->
  ?absent:int list ->
  ?unchecked:int list ->
  ?plan:Clanbft_faults.Faults.plan ->
  ?adversaries:Clanbft_faults.Strategy.spec list ->
  ?persist:bool ->
  ?restarts:Clanbft_faults.Faults.restart list ->
  ?generate:(int -> round:int -> Block.t) ->
  ?on_commit:(int -> leader:Vertex.t -> Vertex.t list -> unit) ->
  ?on_deliver:(int -> Vertex.t -> unit) ->
  ?on_txn_executed:(int -> Transaction.t -> Clanbft_crypto.Digest32.t -> unit) ->
  Config.t ->
  t
(** A net over [Config.n] ids priced by {!Msg.wire_size} and tagged by
    {!Msg.tag}, a keychain, one {!Node} per id, the fault [plan] (default
    none) and the strategy [adversaries] (default none, installed above
    the plan's filter). [seed] seeds one RNG: the net draws from a
    {!Clanbft_util.Rng.split} of it, the keychain seed is its next draw,
    and a non-empty plan takes a further split after the nodes are built,
    so a benign run draws the same stream as one without an injector.

    [absent] ids run no replica: their inbound traffic is discarded.
    Commits of [unchecked] replicas and of replicas that snapshot-joined
    past a garbage-collected gap are recorded but not compared.

    [persist] (forced on by a non-empty [restarts]) gives every id a
    {!Persist.t}. Each restart stops its replica at [crash_at] and, at
    [recover_at], re-creates it over the same store, replays the log (its
    ledger restarts from genesis) and rejoins ({!Node.recover}). [engine]
    defaults to a fresh one; [obs] reaches the net, the replicas and the
    injectors. The hooks receive the replica's id first; [on_commit] runs
    after the ledger has recorded the commits. Callers {!start} the
    replicas and drive the engine. *)

val start : t -> unit
val node : t -> int -> Node.t
(** The replica at an id; raises [Invalid_argument] at an absent id. *)

val replicas : t -> Node.t list
(** The running replicas, in id order. *)

val compared : t -> int -> bool
(** Is the replica's ledger compared: present, not [unchecked] and not
    snapshot-joined? *)

val divergence : t -> divergence option
