(** Byzantine parties: one vocabulary for every attack the simulator can
    mount.

    Where {!Faults} scripts what the {e network} does to honest traffic, a
    strategy {e occupies} a node id. A spec [NODE@KIND[:ARG]] names the
    node and what it does; the same DSL drives [sim], [rbc] and [check].
    Each kind runs on one of two wires, or on both:

    {b Sailfish wire} ({!install}). The node runs the ordinary honest
    stack; the strategy taps the single {!Clanbft_sim.Net.set_filter} slot,
    observes every message crossing the wire, and rewrites, withholds,
    delays or amplifies traffic to mount a sustained attack:

    - {!Censor} — the node systematically strips every DAG edge referencing
      the victim from its own proposals (within the validity envelope: the
      previous-leader edge and quorum/structural minima are preserved) and
      refuses to echo or relay certificates for the victim's slots. The
      victim's transactions only reach the order through other proposers'
      (weak) edges — systematically late.
    - {!Grief} — slow-proposer griefing: every copy of the node's own
      proposals departs [frac x round_timeout] late, riding just inside the
      timeout. Rounds the griefer leads stall the whole tribe for almost a
      full timeout without ever tripping it.
    - {!Sync_storm} — amplification against recovery: upon observing any
      [Sync_request] announcing a recovering replica, the strategy node
      sprays [burst] sync requests at the victim, each of which the victim
      answers with up to a sync chunk of vertex streams from its already
      strained uplink.
    - {!Reorder} — a worst-case-latency scheduler within the jitter bounds:
      every other message crossing the node's links (either direction) is
      held by the slack bound, adversarially inverting delivery orders.

    {b RBC wire} ({!Rbc_world}). A standalone TA-RBC deployment gives the
    node no honest instance; {!Rbc_world.broadcast} crafts the traffic
    that opens each of its instances (the [rbc] command, the bench and the
    checker open every instance from node 0):

    - {!Silent} — the node never speaks: as the sender nobody may deliver.
    - {!Split} — the sender deals the value and a decoy round-robin over
      the other ids in order (from node 0: odd ids the value, even ids the
      decoy; clan members full VALs, the rest of the tribe the matching
      digests), then votes for both digests at
      every node: a maximal-confusion split under which typically no
      digest reaches quorum — a safety stressor.
    - {!Withhold} — the sender sends the full value to only the first
      f_c+1 clan members; the rest of the clan gets just the digest (a
      non-tribe party nothing at all), so the echo quorum still forms and
      the stiffed clan members must pull.
    - {!Collude} — a second Byzantine voter. It joins a split sender's
      votes, and then every Byzantine vote goes only to the honest nodes
      fed that digest, so each half certifies its own value: two faults
      against f = 1, outside the fault model.

    {b Both wires.} {!Equivocate} — the sender hands a decoy to the first
    k value-entitled recipients in id order (the payload clan, or everyone
    outside the tribe families) and the real value to every other party,
    so the real copy can still certify while decoy holders must detect the
    mismatch and pull. On the Sailfish wire the decoy is the clan leader's
    vertex over its block minus one transaction, validly re-signed, and k
    is the most the real digest can spare while still clearing both echo
    thresholds (the occupant itself echoes the real vertex); on the RBC
    wire k = 1.

    Everything is deterministic — no RNG draws — so attack runs replay
    bit-identically from the seed, and a run with no strategies installed
    is byte-identical to one without the engine. With a tracing [obs],
    every copy the Sailfish engine manipulates emits
    {!Clanbft_obs.Trace.Fault_fire} with [rule = -2] and the strategy name
    as its action, which is what lets the stall detector name the attack
    (see [docs/ATTACKS.md]). *)

open Clanbft_types

type kind =
  | Equivocate
  | Censor of int  (** victim node id *)
  | Grief of float  (** proposal delay as a fraction of [round_timeout] *)
  | Sync_storm of int  (** burst: requests injected per observed sync *)
  | Reorder of Clanbft_sim.Time.span  (** slack each held message rides *)
  | Silent
  | Split
  | Withhold
  | Collude

type spec = { node : int; kind : kind }

val kind_name : kind -> string
(** ["equivocate"], ["censor"], ["grief"], ["sync_storm"], ["reorder"]
    (also the Sailfish engine's [Fault_fire] action strings), ["silent"],
    ["split"], ["withhold"], ["collude"]. *)

val to_string : spec -> string
(** Render back into the DSL form accepted by {!of_string}. *)

val of_string : string -> (spec, string) result
(** Parse ["NODE@KIND[:ARG]"]:
    - ["3@equivocate"], ["0@silent"], ["0@split"], ["0@withhold"],
      ["1@collude"] (no argument)
    - ["3@censor:5"] (victim node required)
    - ["3@grief:0.8"] (fraction optional, default 0.8)
    - ["3@storm:32"] (burst optional, default 32)
    - ["3@reorder:2ms"] (slack optional, default 2 ms; fault-DSL times) *)

val of_specs : string list -> (spec list, string) result

type wire = [ `Rbc | `Sailfish ]

val validate : n:int -> wire:wire -> spec list -> (unit, string) result
(** The first out-of-range or repeated node id, kind confined to the
    other wire, RBC sender kind ([split], [withhold], [equivocate]) at a
    node other than the RBC sender, node 0, or censor victim that is out
    of range or equal to its own node, in a tribe of [n]. *)

val install :
  engine:Clanbft_sim.Engine.t ->
  net:Msg.t Clanbft_sim.Net.t ->
  keychain:Clanbft_crypto.Keychain.t ->
  config:Config.t ->
  round_timeout:Clanbft_sim.Time.span ->
  ?obs:Clanbft_obs.Obs.t ->
  spec list ->
  unit
(** Wrap the net's current filter with the strategy engine ([[]] is a
    no-op). Install {e after} {!Faults.install}: strategies rule first and
    delegate untouched traffic — and their crafted copies — to the fault
    filter below, so network fault rules still apply to adversary traffic,
    while fault-level re-injections bypass the strategies (they were
    already ruled on once). Raises [Invalid_argument] with the {!validate}
    error. *)
