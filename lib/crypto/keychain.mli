(** Simulated digital signatures and BLS-style multi-signatures.

    The sealed container offers no elliptic-curve library, so signatures are
    simulated: party [i]'s signature on [msg] is a keyed pseudo-random tag —
    four splitmix-style avalanche lanes over two independent 63-bit message
    digests, keyed by party [i]'s secret words — and the verifier recomputes
    it through the shared {!t} registry (the simulation stand-in for a PKI).
    Within the simulator this is unforgeable for any adversary that does not
    hold the key, which is exactly the guarantee consensus needs; it is
    deliberately {e not} cryptographic strength, because echo verification
    runs ~n³ times per round at paper scale and the tag computation is the
    hottest function in an n = 150 run. Byte sizes on the wire are
    accounted separately and match the paper's BLS setting: an individual
    signature costs κ bytes and an aggregate costs κ bytes plus an
    ⌈n/8⌉-byte signer bitvector (§4: "merely a bit vector indicating who
    voted").

    Aggregate verification follows the paper's optimisation: the aggregate is
    checked as a whole first; only on mismatch are the constituent signatures
    checked individually to expose the faulty signer. *)

type t
(** A key registry for [n] parties. *)

type signature

type aggregate
(** A multi-signature: one combined tag plus the signer set. *)

val create : seed:int64 -> n:int -> t
val n : t -> int

val sign : t -> signer:int -> string -> signature
val verify : t -> signer:int -> string -> signature -> bool

type msg_hash
(** A message's two 63-bit digests, precomputed once. The echo path
    verifies up to [n] signers against the same signing string, so hashing
    it once per slot and passing the [msg_hash] amortises the message scan
    across all of a slot's verifications. *)

val hash_msg : string -> msg_hash

val verify_hashed : t -> signer:int -> msg_hash -> signature -> bool
(** [verify_hashed t ~signer (hash_msg msg) s = verify t ~signer msg s]. *)

val verify_aggregate_hashed : t -> hash:msg_hash -> aggregate -> bool
(** Aggregate verification against a precomputed message hash; equal to
    {!verify_aggregate} on the original message. *)

val forge : signature
(** An invalid signature, for Byzantine behaviours in tests. *)

val signature_size : int
(** Wire bytes of one signature (κ = 64, covering hash- and signature-size
    as the paper does). *)

val aggregate : t -> (int * signature) list -> aggregate option
(** Combine signatures on one message (needed only to verify the result).
    Mirrors the paper's flow: aggregation never fails (no upfront
    verification) — this function returns [None] only if a signer index is
    out of range or repeated. The aggregate may later fail
    verification if a constituent was forged. Equal, tag and signers, to
    folding the same shares through an {!accumulator}. *)

(** {1 Incremental aggregation}

    BLS shares combine one at a time, so a collector need not hold them:
    it folds each verified share into an accumulator and cuts the
    aggregate at its quorum. *)

type accumulator

val accumulator : unit -> accumulator
(** The empty aggregate. *)

val accumulate : accumulator -> signature -> unit
(** Fold one signature in, in place; allocates nothing. *)

val to_aggregate : accumulator -> signers:Clanbft_util.Bitset.t -> aggregate
(** The aggregate of the signatures folded in so far, claimed for
    [signers]. The tag is copied; [signers] is not, so pass a set that
    will not change. *)

val verify_aggregate : t -> msg:string -> aggregate -> bool

val find_faulty_signers :
  t -> msg:string -> aggregate -> (int * signature) list -> int list
(** Individual re-verification of the aggregate's shares after an
    aggregate failure: the paper's "identify and penalize the faulty
    party" path. Empty when the aggregate is actually valid. The aggregate
    does not keep its shares, so the caller passes them. *)

val signers : aggregate -> Clanbft_util.Bitset.t
val aggregate_size : t -> int
(** κ + ⌈n/8⌉ bytes. *)

(** {1 Wire access}

    For the binary codec: an aggregate is exactly its combined tag plus the
    signer bitvector, so a decoded aggregate is as good as a local one. *)

val aggregate_tag : aggregate -> string
(** The 32-byte combined tag. *)

val aggregate_of_wire : tag:string -> signers:Clanbft_util.Bitset.t -> aggregate

val signature_to_raw : signature -> string
(** The 32-byte tag (wire accounting still charges κ = 64). *)

val signature_of_raw : string -> signature
(** Raises [Invalid_argument] unless given 32 bytes. *)

val approx_live_words : t -> int
(** Heap-census hook: word estimate of the per-party key arrays. Expected-tag
    memos live on the aggregates themselves and are counted with the messages
    that carry them. See docs/PROFILING.md. *)
