(** Wire messages of the Sailfish consensus layer and its merged
    vertex+block broadcast (§5 "Efficiently propagating the vertex and the
    block", §7 implementation details).

    One broadcast instance exists per (proposer, round) slot, run by
    [Clanbft_rbc.Rbc_core] in its signed mode: VAL carries the vertex to
    everyone and the block to the proposer's clan only; ECHO acknowledges
    the pair (the vertex alone outside the clan); an ECHO certificate
    (2f+1 ECHOs, ≥ fc+1 from the clan) finishes it. [Vertex_request] /
    [Block_request] pull missing content off the critical path. The
    remaining messages are consensus: timeout and no-vote shares and
    certificates, and state sync. *)

open Clanbft_crypto

type t =
  | Val of { vertex : Vertex.t; block : Block.t option; signature : Keychain.signature }
      (** First round of the RBC: the proposal. [block] is present only on
          copies sent to the proposer's clan. Doubles as the commit vote
          carrier: a VAL for round r+1 with a strong edge to the round-r
          leader is a vote for it. *)
  | Echo of {
      round : int;
      source : int;  (** the RBC proposer being echoed *)
      vertex_digest : Digest32.t;
      signer : int;
      signature : Keychain.signature;
    }
  | Echo_cert of {
      round : int;
      source : int;
      vertex_digest : Digest32.t;
      agg : Keychain.aggregate;
      clan_echoes : int;  (** how many aggregated ECHOs came from the clan *)
    }  (** EC_r(m) of Fig. 3: completes the RBC in two rounds. *)
  | Timeout_share of { round : int; signer : int; signature : Keychain.signature }
  | No_vote_share of { round : int; signer : int; signature : Keychain.signature }
  | Timeout_cert of Cert.t
      (** Multicast so every party can advance past a stalled round. *)
  | Block_request of { round : int; source : int }
      (** Pull a missing block from a clan member (off the critical path). *)
  | Block_reply of { block : Block.t }
  | Vertex_request of { round : int; source : int }
  | Vertex_reply of { vertex : Vertex.t; block : Block.t option }
  | Sync_request of { from_round : int }
      (** A recovering replica announces its highest contiguous DAG round
          and asks a peer to stream certified vertices above it (state
          sync; see [docs/RECOVERY.md]). *)
  | Sync_reply of { floor : int; highest : int }
      (** The peer's GC floor and highest stored round; the vertices
          themselves follow as ordinary [Vertex_reply] messages. A [floor]
          above the requester's frontier signals the gap was garbage
          collected and replay alone cannot reconnect. *)

val echo_signing_string : round:int -> source:int -> Digest32.t -> string
(** Canonical string ECHO signatures cover. *)

val val_signing_string : Vertex.t -> string
(** Canonical string a proposer's VAL signature covers. Exposed so the
    strategic adversary engine ({!Clanbft_faults.Strategy}) can re-sign
    forged variants of its own proposals with its legitimate key. *)

val wire_size : n:int -> t -> int
(** Exact bytes on the wire; kept in lock-step with {!Codec} by a property
    test ([wire_size] must equal the encoded length). *)

val tag : t -> string
(** Constructor name, for logs and traffic accounting. *)

val round : t -> int option
(** The consensus round a message belongs to (a VAL's vertex round;
    [None] for [Block_reply] and the state-sync control messages). Feeds
    round-windowed fault rules and mute-after-round crash injection. *)

val pp : Format.formatter -> t -> unit
