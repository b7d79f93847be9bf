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
    echoes are skipped unread. The first digest's votes sit inline in the
    instance, and a table is made only when an equivocating sender brings
    a second; the pull-serving ledger is made on the first pull served.

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

type 'e inst = {
  sender : int;
  round : int;
  ext : 'e;  (** the adapter's payload state *)
  mutable agreed : Digest32.t option;  (** the settled digest; see {!agree} *)
  mutable delivered : bool;
      (** set by the adapter once delivery is final; later certificates
          are ignored *)
  mutable first : Digest32.t;
      (** the first echoed digest; {!Digest32.zero} until one is attached *)
  mutable first_votes : votes;  (** its echo votes *)
  mutable more_echoes : votes Digest32.Tbl.t option;
      (** echo votes for further digests, made on the second *)
  mutable readies : votes Digest32.Tbl.t option;  (** unsigned mode only *)
  mutable sent_echo : bool;
  mutable sent_ready : bool;
  mutable sent_cert : bool;  (** own certificate formed; echoes now skipped *)
  mutable cert : Keychain.aggregate option;  (** kept when [keep_certs] *)
  mutable served : (int, int) Hashtbl.t option;
      (** pull replies served, per peer; made on the first *)
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
(** (instances, digest vote records). *)

val heap_root : ('e, 'm) t -> Obj.t
(** The instance rows, a {!Clanbft_obs.Prof.census} root: it reaches the
    instances, their votes and payload state, and no closure, engine or
    network. *)

val prune_below : ('e, 'm) t -> round:int -> unit
(** Drop the instances of every round below [round], row by row. *)

val echo_voters : 'e inst -> Digest32.t -> int list
val ready_voters : 'e inst -> Digest32.t -> int list

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
