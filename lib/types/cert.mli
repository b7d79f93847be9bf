(** Timeout and no-vote certificates (Fig. 4, [v.tc] and [v.nvc]).

    A timeout certificate for round [r] proves 2f+1 parties gave up waiting
    for round [r] to complete and justifies advancing without the leader. A
    no-vote certificate proves 2f+1 parties did not vote for the round-[r]
    leader and entitles the round-[r+1] leader to propose without a strong
    edge to it. Both are BLS-style aggregates: κ bytes + a signer bitvector
    (§7, implementation details). *)

open Clanbft_crypto

type kind = Timeout | No_vote

type t = private {
  kind : kind;
  round : int;
  agg : Keychain.aggregate;
}

val signing_string : kind -> int -> string
(** Canonical message each party signs for ([kind], [round]). *)

val make :
  Keychain.t -> kind -> round:int -> (int * Keychain.signature) list -> t option
(** Aggregate the shares; [None] if a signer id is invalid. No upfront
    verification (the paper's aggregation strategy): a forged share makes
    {!verify} fail later. *)

val of_aggregate : kind -> round:int -> agg:Keychain.aggregate -> t
(** A certificate over an already-formed aggregate: a decoded one, or one
    cut from a {!Keychain.accumulator}. {!verify} still applies. *)

val verify : Keychain.t -> quorum:int -> t -> bool
(** Valid iff the aggregate checks out and carries at least [quorum]
    distinct signers. *)

val signer_count : t -> int
val wire_size : n:int -> int
(** 5-byte header + κ + ⌈n/8⌉. *)

val pp : Format.formatter -> t -> unit
