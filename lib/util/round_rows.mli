(** Per-slot state keyed by (round, source), stored as one row per round.

    A row is an array of [n] slots, one per source, plus its occupancy
    count. The rows sit in a table keyed by round, and a few recently used
    rows are cached in a direct-mapped array indexed by the round's low
    bits, so the hot lookups — the rounds a replica is currently working
    on — cost one array load, one compare and one array index, with no C
    call and no allocation. Rounds may be any [int] (a row is made only by
    {!set}), so Byzantine input cannot break a lookup; pruning drops whole
    rows, lowest round first, at a cost proportional to the rows dropped.

    A filled slot holds the value itself, with no [Some] cell, and the
    cache holds each cached row's slot array, so a hit reads the cache
    entry and then the slot. {!find_or}, {!mem}, {!count} and {!set} on an
    existing row allocate nothing; {!find} allocates the [Some] it
    returns, so per-message and per-commit probes use {!find_or} with a
    default of their own. *)

type 'a t

val create : n:int -> 'a t
(** An empty structure for sources [0 .. n-1]. *)

val n : 'a t -> int

val find : 'a t -> round:int -> source:int -> 'a option
(** [None] for an empty slot, a round without a row, or a source outside
    [0 .. n-1]. Never raises. Allocates the [Some]. *)

val find_or : 'a t -> round:int -> source:int -> 'a -> 'a
(** [find_or t ~round ~source default] is the slot's value, or [default]
    where {!find} is [None]. Never raises and allocates nothing. *)

val set : 'a t -> round:int -> source:int -> 'a -> unit
(** Fill a slot, making its row on first use; overwriting a full slot
    keeps the counts. Raises [Invalid_argument] for a source outside
    [0 .. n-1]. *)

val remove : 'a t -> round:int -> source:int -> unit
(** Empty a slot (its row stays until dropped). A no-op on an empty slot
    or out-of-range coordinates. *)

val mem : 'a t -> round:int -> source:int -> bool
(** [find] is [Some _]. *)

val count : 'a t -> int -> int
(** Occupied slots in a round (0 without a row). *)

val iter_row : 'a t -> int -> ('a -> unit) -> unit
(** The round's occupied slots, in ascending source order. *)

val fold : ('a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Every occupied slot, in unspecified order. *)

val size : 'a t -> int
(** Occupied slots in all rows. *)

val drop_below : 'a t -> int -> unit
(** Drop every row of a round below the argument. A row made later below
    it is dropped by the next call. *)
