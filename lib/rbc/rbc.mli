(** Reliable broadcast primitives, standalone over opaque string values.

    Four protocols behind one interface:

    - {!Bracha}: classic 3-round signature-free RBC — the baseline the
      paper's Fig. 2 construction extends;
    - {!Signed_two_round}: the good-case-optimal 2-round signed RBC of
      Abraham et al. — the baseline the paper's Fig. 3 construction extends;
    - {!Tribe_bracha}: tribe-assisted RBC, Fig. 2 — 3 rounds,
      signature-free; only the clan receives the value, the rest of the
      tribe delivers its digest;
    - {!Tribe_signed}: tribe-assisted RBC, Fig. 3 — 2 rounds, signed, with
      an ECHO-certificate finish.

    Delivery semantics follow Definition 2: clan members (or everybody, for
    the non-tribe protocols) output the value [m]; parties outside the clan
    output [H(m)]. Missing values are pulled from clan members off the
    critical path, with per-peer rate limiting (§3, "Remark on communication
    complexity").

    This module is a thin adapter over {!Rbc_core}, the instance core
    that Sailfish's merged vertex+block instance (§5) also runs on. The
    adapter owns the wire format ({!msg}), the value and its delivery.
    Its context hooks give the core the echo signing string
    ({!echo_signing_string}), one clan with its fc+1 threshold for every
    sender, relaying by every node, and kept certificates (to answer
    {!request_sync}). Quorums, certificates, READY amplification, pull
    serving and the pull sweep are the core's, so the checker's exhaustive
    search over these families explores the code consensus runs. *)

open Clanbft_crypto

type protocol = Bracha | Signed_two_round | Tribe_bracha | Tribe_signed

val protocol_name : protocol -> string

val is_tribe : protocol -> bool
(** Clan-based dissemination: only clan members receive (and serve) the
    full value. *)

val is_signed : protocol -> bool
(** Two-round variants whose ECHOs carry signatures (Fig. 3). *)

(** Wire messages; exposed so tests can inject Byzantine traffic straight
    into the network. *)
type msg =
  | Val of { sender : int; round : int; value : string }
  | Val_digest of { sender : int; round : int; digest : Digest32.t }
  | Echo of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Ready of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Echo_cert of {
      sender : int;
      round : int;
      digest : Digest32.t;
      agg : Keychain.aggregate;
    }
  | Pull_request of { sender : int; round : int }
  | Pull_reply of { sender : int; round : int; value : string }
  | Sync_request of { sender : int; round : int }
      (** ask peers to re-prove an already-completed instance (late join /
          crash recovery); see {!request_sync} *)

val msg_size : n:int -> msg -> int
(** Wire bytes; plug into {!Clanbft_sim.Net.create}. *)

val msg_tag : msg -> string
(** Constructor name ([val], [echo], [pull_request], …); the [classify]
    hook for {!Clanbft_faults.Faults}-style kind-keyed fault rules. *)

val msg_round : msg -> int option
(** The RBC round a message belongs to; always [Some _] here, typed as an
    option to match round-window fault-injection hooks. *)

val echo_signing_string : sender:int -> round:int -> Digest32.t -> string

type outcome = Value of string | Digest_only of Digest32.t

type node

val create :
  me:int ->
  n:int ->
  ?f:int ->
  ?clan:int array ->
  protocol:protocol ->
  engine:Clanbft_sim.Engine.t ->
  net:msg Clanbft_sim.Net.t ->
  keychain:Keychain.t ->
  ?obs:Clanbft_obs.Obs.t ->
  on_deliver:(sender:int -> round:int -> outcome -> unit) ->
  unit ->
  node
(** Builds an honest node and installs its network handler. [clan] is
    required (and only meaningful) for the tribe protocols. The node serves
    at most 8 pull requests per (instance, peer) (rate limiting).
    [on_deliver] fires exactly once per (sender, round).

    A node that agreed on a digest it lacks the payload for pulls from ECHO
    voters, then READY voters, then every other clan member, retrying one
    peer every 200 ms; exhausted sweeps restart under exponential
    backoff (capped at 16 x 200 ms) until delivery, so transient loss
    or Byzantine non-repliers cannot stall a clan member forever.

    [obs] (default {!Clanbft_obs.Obs.disabled}) records every phase
    transition of every instance as {!Clanbft_obs.Trace.Rbc_phase} events
    (VAL received, ECHO/READY sent, digest certified, delivered, each pull
    retry) and counts pull retries in [rbc_pull_retries{node}]. *)

val broadcast : node -> round:int -> string -> unit
(** r_bcast: disseminate a value as the designated sender. *)

val request_sync : node -> sender:int -> round:int -> unit
(** Ask all peers to re-prove an old instance this node missed (it was
    down, or behind a partition, while the instance completed). Peers that
    delivered respond: in the signed protocols with their stored ECHO
    certificate — one valid response re-completes the instance — and in
    the Bracha family with a directed READY each, so responses from the
    ≥ 2f+1 delivered peers re-form a READY quorum at the requester.
    Totality of RBC makes both sufficient. No-op if this node already
    delivered the instance. Missing payloads then follow the ordinary
    pull path. *)

val delivered : node -> sender:int -> round:int -> outcome option

(** {1 Invariant-observation hooks}

    Read-only views of per-instance state for external checkers (the
    [lib/check] schedule explorer asserts agreement / totality /
    no-equivocation over them; see docs/CHECKING.md). They never mutate
    the instance table beyond what {!delivered} already does. *)

val agreed : node -> sender:int -> round:int -> Digest32.t option
(** The digest this node's quorum settled on, once certified — present
    from the moment of certification, i.e. possibly before the payload
    arrives and {!delivered} turns [Some]. *)

val pulling : node -> sender:int -> round:int -> bool
(** True while this node has certified a digest it lacks the payload for
    and its pull loop is still live. A quiescent world with a node stuck
    in ([agreed = Some _], [delivered = None], [pulling = false]) has hit
    a pull-path liveness bug — exactly the shape of the (since fixed)
    PR 1 READY-path defect the checker re-finds when that fix is
    reverted (EXPERIMENTS.md). *)

val footprint : node -> int * int
(** (instances, digest vote records) this node holds: what unverified
    Byzantine traffic must not be able to grow. *)

