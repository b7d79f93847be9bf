(** A standalone RBC tribe: one deployment of a {!Clanbft_rbc.Rbc}
    protocol on the simulator, shared by every place that runs a broadcast
    outside consensus (the [rbc] CLI command, the bench's RBC ablations,
    the checker's RBC worlds and the RBC tests).

    {!create} wires a net priced by {!Clanbft_rbc.Rbc.msg_size} and tagged
    by {!Clanbft_rbc.Rbc.msg_tag}, one keychain with a fixed seed, an
    honest node for every id except the Byzantine ones (which get a no-op
    handler, so an {!Adversary} can speak for them), and the fault plan.
    Every honest delivery is recorded. Callers drive the engine and start
    the broadcast themselves ({!Clanbft_rbc.Rbc.broadcast} or
    {!Adversary.run}). *)

open Clanbft_sim
module Rbc = Clanbft_rbc.Rbc

type delivery = Time.t * int * int * int * Rbc.outcome
(** [(time, node, sender, round, outcome)] *)

type t = {
  engine : Engine.t;
  net : Rbc.msg Net.t;
  keychain : Clanbft_crypto.Keychain.t;
  nodes : Rbc.node option array;  (** [None] at the Byzantine ids *)
  injector : Rbc.msg Faults.t option;  (** [None] for an empty plan *)
  log : delivery list ref;  (** newest first; see {!deliveries} *)
}

val create :
  ?engine:Engine.t ->
  ?obs:Clanbft_obs.Obs.t ->
  topology:Topology.t ->
  config:Net.config ->
  seed:int64 ->
  ?clan:int array ->
  ?byzantine:int list ->
  ?plan:Faults.plan ->
  ?on_deliver:(int -> sender:int -> round:int -> Rbc.outcome -> unit) ->
  Rbc.protocol ->
  t
(** The tribe spans [Topology.n topology] nodes. [seed] seeds the net's
    RNG; a non-empty [plan] (default {!Faults.empty}) is installed with a
    {!Clanbft_util.Rng.split} of it, so a benign run draws the same stream
    as one without an injector. [engine] defaults to a fresh one; [obs]
    reaches the net, the nodes and the injector. [clan] is required for
    the tribe protocols. [on_deliver] runs after each delivery is
    recorded, with the delivering node's id first. *)

val node : t -> int -> Rbc.node
(** The honest node at an id; raises [Invalid_argument] at a Byzantine
    id. *)

val deliveries : t -> delivery list
(** Every honest delivery so far, oldest first. *)

type summary = {
  values : int;  (** deliveries of the full value *)
  digests : int;  (** digest-only deliveries *)
  stalled : int;  (** honest nodes that delivered nothing *)
  distinct : int;  (** distinct delivered digests: more than one breaks agreement *)
  last : Time.t;  (** time of the last delivery; 0 when there was none *)
}

val summary : t -> summary
