(** Strategic adversaries: full-run protocol-level attack behaviours.

    Where {!Faults} scripts what the {e network} does to honest traffic and
    {!Adversary} injects one crafted RBC round, a strategy {e occupies} a
    node id for the whole run. The node itself runs the ordinary honest
    stack; the strategy taps the single {!Clanbft_sim.Net.set_filter} slot,
    observes every message crossing the wire, and rewrites, withholds,
    delays or amplifies traffic to mount a sustained attack:

    - {!Equivocate} — the clan leader splits its VAL inside the payload
      clan: a bounded prefix of clan recipients receives a forged variant
      (same edges, block minus one transaction, validly re-signed), everyone
      else the real digest. The real copy still clears both echo
      thresholds, so the attack stresses detection + pull, not liveness.
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

    Everything is deterministic — no RNG draws — so attack runs replay
    bit-identically from the seed, and a run with no strategies installed
    is byte-identical to one without the engine. With a tracing [obs],
    every manipulated copy emits {!Clanbft_obs.Trace.Fault_fire} with
    [rule = -2] and the strategy name as its action, which is what lets the
    stall detector name the attack (see [docs/ATTACKS.md]). *)

open Clanbft_types

type kind =
  | Equivocate
  | Censor of int  (** victim node id *)
  | Grief of float  (** proposal delay as a fraction of [round_timeout] *)
  | Sync_storm of int  (** burst: requests injected per observed sync *)
  | Reorder of Clanbft_sim.Time.span  (** slack each held message rides *)

type spec = { node : int; kind : kind }

val kind_name : kind -> string
(** ["equivocate"], ["censor"], ["grief"], ["sync_storm"], ["reorder"] —
    also the [Fault_fire] action strings. *)

val to_string : spec -> string
(** Render back into the DSL form accepted by {!of_string}. *)

val of_string : string -> (spec, string) result
(** Parse ["NODE@STRATEGY[:ARG]"]:
    - ["3@equivocate"]
    - ["3@censor:5"] (victim node required)
    - ["3@grief:0.8"] (fraction optional, default 0.8)
    - ["3@storm:32"] (burst optional, default 32)
    - ["3@reorder:2ms"] (slack optional, default 2 ms; fault-DSL times) *)

val of_specs : string list -> (spec list, string) result

val validate : n:int -> spec list -> (unit, string) result
(** The first out-of-range node id, or censor victim that is out of range
    or equal to its own node, in a tribe of [n]. *)

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
