(** A standalone RBC tribe: one deployment of a {!Clanbft_rbc.Rbc}
    protocol on the simulator, shared by every place that runs a broadcast
    outside consensus (the [rbc] CLI command, the bench's RBC ablations,
    the checker's RBC worlds and the RBC tests).

    {!create} wires a net priced by {!Clanbft_rbc.Rbc.msg_size} and tagged
    by {!Clanbft_rbc.Rbc.msg_tag}, one keychain with a fixed seed, an
    honest node for every id except the ones {!Strategy} specs occupy, and
    the fault plan. This is where the RBC-wire kinds ([silent], [split],
    [withhold], [collude], [equivocate]) are interpreted: an occupied id
    keeps no honest instance (its handler discards everything) and speaks
    only through the traffic its kind crafts when it opens an instance
    ({!broadcast}). Every honest delivery is recorded. Callers drive the
    engine and open the instances themselves. *)

open Clanbft_sim
module Rbc = Clanbft_rbc.Rbc

type delivery = Time.t * int * int * int * Rbc.outcome
(** [(time, node, sender, round, outcome)] *)

type occupant =
  | Honest of Rbc.node
  | Byzantine of (round:int -> string -> unit)
      (** an occupied id: how it opens one of its own instances *)

type t = {
  engine : Engine.t;
  net : Rbc.msg Net.t;
  keychain : Clanbft_crypto.Keychain.t;
  nodes : occupant array;
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
  ?adversaries:Strategy.spec list ->
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
    recorded, with the delivering node's id first. Raises
    [Invalid_argument] with the {!Strategy.validate} error for
    [adversaries] (default none) on the RBC wire. *)

val node : t -> int -> Rbc.node
(** The honest node at an id; raises [Invalid_argument] at a Byzantine
    id. *)

val broadcast : t -> sender:int -> round:int -> string -> unit
(** Open instance [(sender, round)] around [value] at the current instant.
    An honest sender broadcasts it. An occupied one sends what its kind
    crafts, to recipients in id order; where a kind needs a decoy, it is
    [value] with its first byte incremented (same length, another digest):
    - [silent] and [collude] send nothing;
    - [split] deals the value and the decoy round-robin (the first
      recipient the value), full VALs to the value-entitled recipients
      (the clan, or everyone outside the tribe families) and digests to
      the rest, then it and every [collude] node send ECHOs (and READYs in
      the Bracha families) for both digests: to every node, or, with
      colluders, only to the honest nodes fed that value;
    - [withhold] sends the full value to the first f_c+1 clan members
      (f_c+1 of the whole tribe without a clan) and the digest to every
      other party; outside the tribe families a stiffed party gets
      nothing;
    - [equivocate] sends the decoy to the first value-entitled recipient
      and the value (or its digest) to every other party. *)

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
