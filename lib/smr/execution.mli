(** Deterministic execution engine.

    Clan members execute ordered blocks and answer clients (§1: a client
    accepts a result vouched for by [fc + 1] clan members). The state is a
    hash chain over executed blocks: identical ordered inputs yield an
    identical state digest on every replica, which is exactly the property
    the client quorum checks. Per-transaction responses are derived from the
    post-state so that divergent replicas cannot produce matching
    responses. *)

open Clanbft_types
open Clanbft_crypto

type t

val create : unit -> t

val apply_block : t -> Block.t -> unit
(** Fold the block into the state; must be called in a_deliver order. *)

val skip_block : t -> Digest32.t -> unit
(** Fold only the digest of a block this replica does not store (another
    clan's payload, multi-clan mode): the chain stays comparable across
    clans while the payload stays remote. *)

val state_digest : t -> Digest32.t
val executed_txns : t -> int

val response : t -> Transaction.t -> Digest32.t
(** The execution receipt a replica returns to the issuing client:
    H(state ‖ txn id). Two replicas agree on a response iff they executed
    the same history prefix. *)
