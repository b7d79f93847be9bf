(** Per-node transaction queue feeding block proposals. *)

open Clanbft_types

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the queue (default 1_000_000); beyond it submissions
    are rejected — back-pressure towards clients. *)

val submit : t -> Transaction.t -> bool
(** [false] when the pool is full. *)

val take : t -> max:int -> Transaction.t array
(** Remove and return up to [max] transactions, FIFO. *)

val pending : t -> int
val submitted_total : t -> int
val rejected_total : t -> int
