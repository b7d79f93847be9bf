(** The one reliable-broadcast instance core.

    Standalone {!Rbc} (four families over {!Rbc.msg}) and Sailfish's merged
    vertex+block instance (§5, over [Msg.t]) are thin adapters over this
    module. An adapter owns its wire format and its payload; the core owns
    what the broadcast decides: per-(sender, round) instances and
    per-digest votes; the 2f+1 echo quorum with the sender's clan
    threshold; in signed mode, certificate forming, relaying and checking,
    in unsigned mode Bracha's READY amplification; budgeted pull serving;
    and the pull sweep (one peer per retry, then backoff capped at 16x
    retry).

    An instance keeps its vote state only while it can still change an
    outcome. A digest's votes keep the hash of the echo signing string,
    not the string, and no signature shares: each verified echo folds
    into the digest's {!Clanbft_crypto.Keychain.accumulator} in place, and
    the certificate is cut from it at this node's own quorum, after which
    echoes are skipped unread. From then on only the adapter may still
    read the tally (its pull candidates are the echo voters), so once the
    instance is also delivered the adapter drops it with {!drop_tally} as
    soon as it needs no candidates. The first digest's votes sit inline
    in the instance; the rare rest (a second digest's votes, READY votes,
    a kept certificate, the pull-serving ledger) shares one side record,
    made on first use. A Sailfish instance that is delivered, certified
    by this node and holds its vertex is nine words, plus its slot.

    The adapter's side is the narrow {!ctx}. The core never calls back into
    adapter state: receive functions return the instance whose quorum or
    certificate just completed, and the adapter decides what delivery
    means for its payload. Nothing is stored for a message before it
    verifies, and requests never create instances, so forged or
    unsolicited traffic cannot grow a node's state. *)

open Clanbft_crypto

type votes
(** One digest's voters, clan count, signing-string hash and, in signed
    mode, the running aggregate of its verified echo signatures. *)

type side
(** Echo votes for further digests (made on the second), READY votes
    (unsigned mode), the certificate kept when [keep_certs], and the pull
    replies served per peer. One shared empty record stands in until an
    instance first needs one of them. *)

type 'e inst = private {
  sender : int;
  round : int;
  ext : 'e;  (** the adapter's payload state *)
  mutable flags : int;
      (** delivered, agreed, ECHO / READY / certificate sent, first
          digest attached; read through {!is_delivered}, {!agreed} and
          {!sent_cert} *)
  mutable agreed : Digest32.t;
      (** the settled digest once {!agreed} is [Some]; {!Digest32.zero}
          before *)
  mutable first : Digest32.t;
      (** the first echoed digest; {!Digest32.zero} until one is attached *)
  mutable first_votes : votes;  (** its echo votes, until {!drop_tally} *)
  mutable side : side;
}

(** The protocol-specific hooks. [in_clan ~sender i] and
    [clan_threshold ~sender] describe [sender]'s clan (threshold 0: no
    clan); [relays_cert ~sender] says whether this node broadcasts the
    certificates it forms for [sender]; [keep_certs] retains certificates
    to re-prove instances later. *)
type ('e, 'm) ctx = {
  fresh : unit -> 'e;
  signing : sender:int -> round:int -> Digest32.t -> string;
  in_clan : sender:int -> int -> bool;
  clan_threshold : sender:int -> int;
  relays_cert : sender:int -> bool;
  keep_certs : bool;
  echo :
    sender:int -> round:int -> Digest32.t -> signer:int -> Keychain.signature option -> 'm;
  ready : sender:int -> round:int -> Digest32.t -> signer:int -> 'm;
  echo_cert :
    sender:int -> round:int -> Digest32.t -> Keychain.aggregate -> clan_echoes:int -> 'm;
}

type ('e, 'm) t

val create :
  me:int ->
  n:int ->
  f:int ->
  signed:bool ->
  engine:Clanbft_sim.Engine.t ->
  net:'m Clanbft_sim.Net.t ->
  keychain:Keychain.t ->
  retry:Clanbft_sim.Time.span ->
  budget:int ->
  trace:Clanbft_obs.Trace.t ->
  pull_retries:Clanbft_obs.Metrics.counter ->
  ('e, 'm) ctx ->
  ('e, 'm) t
(** [signed] selects ECHO certificates over READY. [retry] paces the pull
    sweep, [budget] caps pull replies per (instance, peer), and every pull
    request sent counts in [pull_retries] and traces [Pull_retry]. *)

val find : ('e, 'm) t -> sender:int -> round:int -> 'e inst option
(** Without creating; [None] for a sender outside the committee. Allocates
    the [Some]; the receive paths look instances up without allocating. *)

val delivered : ('e, 'm) t -> sender:int -> round:int -> bool
(** The instance exists and is delivered. Allocates nothing. *)

val get : ('e, 'm) t -> sender:int -> round:int -> 'e inst
(** Creating, for locally justified state only: an authenticated VAL, a
    certified reference, a replayed journal. Raises [Invalid_argument]
    for a sender outside the committee. *)

val fold : ('e inst -> 'acc -> 'acc) -> ('e, 'm) t -> 'acc -> 'acc
(** Every instance, in unspecified order. *)

val footprint : ('e, 'm) t -> int * int
(** (instances, digests seen): the first echoed digest, whether or not its
    tally is still held, plus the vote records held for other digests and
    READYs. *)

val heap_root : ('e, 'm) t -> Obj.t
(** The instance rows, a {!Clanbft_obs.Prof.census} root: it reaches the
    instances, their votes and payload state, and no closure, engine or
    network. *)

val prune_below : ('e, 'm) t -> round:int -> unit
(** Drop the instances of every round below [round], row by row. *)

val is_delivered : 'e inst -> bool

val mark_delivered : 'e inst -> unit
(** Set by the adapter once delivery is final; later certificates are
    ignored. *)

val agreed : 'e inst -> Digest32.t option
(** The settled digest; see {!agree}. Allocates the [Some]. *)

val sent_cert : 'e inst -> bool
(** This node formed its own certificate; echoes are now skipped. *)

val cert : 'e inst -> Keychain.aggregate option
(** The certificate kept when [keep_certs]. *)

val restore : 'e inst -> Digest32.t -> unit
(** Put a replayed instance in its terminal state: delivered, agreed on
    the digest, ECHO and certificate sent. Traces nothing. *)

val echo_voters : 'e inst -> Digest32.t -> int list
val ready_voters : 'e inst -> Digest32.t -> int list

val holds_tally : 'e inst -> bool
(** The instance still holds echo votes. *)

val drop_tally : 'e inst -> unit
(** Free the echo votes of a delivered instance that formed its own
    certificate: no receive path reads or grows them after that, so only
    the adapter's {!echo_voters} still could. A no-op before both. The
    first digest stays counted by {!footprint}; further digests' votes go
    with the tally. *)

val trace_phase :
  ('e, 'm) t -> sender:int -> round:int -> Clanbft_obs.Trace.phase -> unit

val trace : ('e, 'm) t -> 'e inst -> Clanbft_obs.Trace.phase -> unit

val send_echo : ('e, 'm) t -> 'e inst -> Digest32.t -> unit
(** This node's one ECHO for the instance, signed in signed mode. *)

val agree : ('e, 'm) t -> 'e inst -> Digest32.t -> unit
(** Record the settled digest, tracing [Cert] the first time. *)

val on_echo :
  ('e, 'm) t ->
  sender:int ->
  round:int ->
  Digest32.t ->
  signer:int ->
  Keychain.signature ->
  'e inst option
(** An ECHO over an authenticated channel. Signed mode verifies it and
    returns the instance when it completed the quorum (the certificate is
    then formed, and broadcast if this node relays it). Unsigned mode
    ignores the signature, sends READY at the quorum and returns [None]. *)

val on_ready :
  ('e, 'm) t -> sender:int -> round:int -> Digest32.t -> signer:int -> 'e inst option
(** Unsigned mode: f+1 READYs send ours, 2f+1 return the instance. *)

val cert_valid :
  ('e, 'm) t -> sender:int -> round:int -> Digest32.t -> Keychain.aggregate -> bool
(** Signed mode: the certificate has 2f+1 signers, meets the clan
    threshold and verifies — the checks {!on_echo_cert} makes. The answer
    does not depend on which node asks, and nothing is stored. *)

val on_echo_cert :
  ('e, 'm) t -> sender:int -> round:int -> Digest32.t -> Keychain.aggregate ->
  'e inst option
(** Signed mode, undelivered instances: the instance if {!cert_valid}. *)

val serve :
  ('e, 'm) t -> sender:int -> round:int -> src:int -> ('e inst -> 'm option) -> unit
(** A pull request from [src]: send [reply]'s answer unless [src]'s budget
    for the instance is spent. *)

val sweep :
  ('e, 'm) t ->
  'e inst ->
  live:(unit -> bool) ->
  request:'m ->
  cycles:int ->
  restart:(int -> unit) ->
  int list ->
  unit
(** While [live ()], send [request] to the next candidate every retry;
    once they run out, wait [retry * 2^min cycles 4] and call
    [restart (cycles + 1)] to start the next sweep. *)
