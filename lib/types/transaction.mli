(** Client transactions.

    The evaluation's unit of work: §7 uses 512-byte transactions of random
    bytes. The simulator does not ship payload bytes around — only their
    size matters to the network — but each transaction carries a unique id
    that the execution layer folds into the replicated state, so execution
    results are deterministic and comparable across replicas.

    This record is what clients, the mempool and the codec exchange. A
    {!Block} does not keep it: it packs its transactions into runs of
    consecutive ids with one client, creation time and size (five ints per
    run, five per transaction at worst) and rebuilds records on demand. *)

type t = {
  id : int;  (** globally unique *)
  client : int;  (** issuing client id *)
  created_at : Clanbft_sim.Time.t;  (** creation time; latency = commit - this *)
  size : int;  (** wire bytes of the payload *)
}

val default_size : int
(** 512, as in §7. *)

val make : id:int -> client:int -> created_at:Clanbft_sim.Time.t -> ?size:int -> unit -> t

val header_size : int
(** 24: one transaction's wire header, before its payload: id (8 bytes),
    client (4), created_at (8) and size (4). *)

val wire_size : t -> int
(** Bytes on the wire: {!header_size} + payload. *)
