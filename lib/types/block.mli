(** Transaction blocks (Fig. 4, [struct block]).

    Separated from the vertex so that it can be disseminated only to a clan
    while the vertex travels to the whole tribe (§5). The digest binds the
    proposer and round, so a Byzantine proposer cannot reuse one block's
    digest for different (round, proposer) slots.

    A block holds its transactions as runs packed in one flat [int array],
    five ints per run: first id, count, client, [created_at], size. A
    transaction extends the current run when its id is the previous id + 1
    and its client, [created_at] and size are equal. A closed-loop proposal
    (consecutive ids from one client at one instant) is one run, built
    directly by {!of_run}: 18 words for the whole block, digest included.
    The worst case, no two transactions merging, is 5 words per
    transaction, against 6 for a boxed {!Transaction.t} behind a pointer.
    Nothing else is kept: {!iter_txns} and {!txns} build the transactions
    on demand. *)

open Clanbft_crypto

type runs
(** The packed transactions; read them through {!iter_runs}, {!iter_txns}
    or {!txns}. *)

type t = private {
  proposer : int;
  round : int;
  runs : runs;
  digest : Digest32.t;  (** cached hash of the block *)
  wire_size : int;  (** cached wire bytes, so sizing a send is O(1) *)
}

val make : proposer:int -> round:int -> txns:Transaction.t array -> t

val of_run :
  proposer:int ->
  round:int ->
  id:int ->
  count:int ->
  client:int ->
  created_at:Clanbft_sim.Time.t ->
  size:int ->
  t
(** {!make} over [count] transactions [id], [id + 1], ..., all with this
    client, creation time and size, built without their records.
    @raise Invalid_argument on a negative [count] or [size]. *)

val digest : t -> Digest32.t

val txn_count : t -> int
(** O(runs). *)

val wire_size : t -> int
(** 12-byte header + the transactions' wire bytes. O(1): computed once at
    construction. *)

val iter_runs :
  t ->
  (id:int -> count:int -> client:int -> created_at:Clanbft_sim.Time.t -> size:int -> unit) ->
  unit
(** Each run in order: transactions [id], [id + 1], ..., [id + count - 1],
    all with this client, creation time and size. *)

val iter_txns : t -> (Transaction.t -> unit) -> unit
(** Each transaction in order, built on demand. *)

val txns : t -> Transaction.t array
(** The transactions [make] was given, field for field. *)

val pp : Format.formatter -> t -> unit
