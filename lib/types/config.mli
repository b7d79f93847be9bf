(** Static protocol membership configuration.

    Captures the tribe, the fault bound, and the dissemination strategy —
    the axis the paper explores:

    - {!Full}: baseline DAG BFT (Sailfish): every party proposes a block and
      every block goes to every party;
    - {!Single_clan} (§5): one designated clan; only clan members propose
      blocks, blocks go only to the clan, everybody still proposes vertices;
    - {!Multi_clan} (§6): disjoint clans partitioning (a subset of) the
      tribe; every party proposes blocks, each block goes to the proposer's
      own clan.

    All derived quantities (quorums, proposers, payload recipients,
    executors) are answered here so protocol code stays mode-agnostic. *)

type dissemination =
  | Full
  | Single_clan of int array
  | Multi_clan of int array array

(** How a proposer references the previous round — orthogonal to the
    dissemination axis:

    - {!Dense}: Fig. 4 Sailfish — strong edges to {e every} delivered
      round-(r−1) vertex (≥ 2f+1), so per-vertex wire/codec/store cost is
      O(n);
    - {!Sparse}: Clownfish-style — a few structural edges (own chain,
      previous leader, one link to a voter for the leader before that) plus
      [k] pseudo-randomly sampled parents drawn from a deterministic,
      seed-keyed hash, so per-vertex cost is O(k) ≈ O(log n). Commit safety
      rests on transitive coverage through the mandatory edges instead of
      the direct 2f+1-parent overlap (see DESIGN.md §8). *)
type edge_policy = Dense | Sparse of { k : int; seed : int64 }

type t

val make : n:int -> ?f:int -> ?edge_policy:edge_policy -> dissemination -> t
(** [f] defaults to ⌊(n-1)/3⌋; [edge_policy] defaults to {!Dense}.
    Validates membership: ids in range, clans disjoint and non-empty.
    Raises [Invalid_argument] otherwise. *)

val n : t -> int
val f : t -> int

val quorum : t -> int
(** 2f+1. *)

val weak_quorum : t -> int
(** f+1. *)

val dissemination : t -> dissemination

val edge_policy : t -> edge_policy

val sparse_edges : t -> bool
(** [true] iff the edge policy is {!Sparse} — i.e. vertices use the
    compact edge representation on the wire. *)

val sparse_strong_cap : edge_policy -> int
(** Most strong edges a valid sparse vertex may carry: [k] sampled + 3
    structural (self, leader, link). [max_int] under {!Dense}. *)

val sparse_weak_cap : edge_policy -> int
(** Most weak edges a sparse proposal carries; the rest of the uncovered
    set drains oldest-first across later rounds. [max_int] under {!Dense}. *)

val leader_of_round : t -> int -> int
(** Round-robin leader over the whole tribe — vertices (and hence leaders)
    come from everyone in every mode. *)

val is_block_proposer : t -> int -> bool
val block_proposers : t -> int list

val payload_clan : t -> proposer:int -> int array option
(** Who must receive the full block from [proposer]:
    [None] when [proposer] proposes no blocks (vertex-only, empty block);
    in [Full] mode the "clan" is the whole tribe. *)

val clan_echo_threshold : t -> proposer:int -> int
(** Minimum ECHOs that must come from [payload_clan] before a READY/cert:
    [fc + 1] of that clan in clan modes (ensures an honest clan member holds
    the block, §3), [0] in [Full] mode (any 2f+1 ECHOs already include f+1
    honest holders). *)

val in_payload_clan : t -> proposer:int -> int -> bool
(** [in_payload_clan t ~proposer i]: does party [i] receive / store / serve
    the full blocks proposed by [proposer]? *)

val executes_blocks : t -> int -> bool
(** Whether party [i] executes any blocks at all (i.e. belongs to some
    clan, or mode is [Full]). *)

val clan_of : t -> int -> int option
(** Index of the clan party [i] belongs to; [None] outside every clan.
    In [Full] mode everyone is in clan 0. *)

val clan_count : t -> int
val clan_fault_bound : t -> int -> int
(** [fc] of clan [c] = ⌈nc/2⌉ - 1. *)

val pp : Format.formatter -> t -> unit
