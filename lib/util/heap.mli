(** Binary min-heap keyed by [int] priorities.

    The simulator's overflow area for far-future events: it stores
    priorities unboxed in a flat [int array] and payloads in a parallel
    ['a array], so reading and removing the minimum allocate nothing.

    Ties are broken by insertion order (FIFO), which keeps simulations
    deterministic regardless of heap internals. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills unused payload slots (required because the payload array is
    unboxed); it is never returned by {!pop_data}. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push h prio x] inserts [x] with priority [prio]. O(log n). *)

val min_priority : 'a t -> int
(** Priority of the minimum entry. O(1). Raises [Invalid_argument] when
    empty. *)

val pop_data : 'a t -> 'a
(** Remove the minimum entry and return its payload. O(log n). Raises
    [Invalid_argument] when empty. Neither call allocates: check
    {!is_empty} first. *)

val clear : 'a t -> unit
