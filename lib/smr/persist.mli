(** Simulated persistent consensus store (the paper uses RocksDB).

    The evaluation attributes part of the large-scale latency to database
    work, so persistence is modelled rather than ignored: every write
    charges a configurable synchronous latency budget plus its bytes at a
    sequential bandwidth to a per-node FIFO storage queue, and completes
    (fires [on_durable]) only after its turn on the queue. Like the
    network, the store never serialises: a write is priced at the wire
    size its caller states, and the write-ahead log keeps the OCaml values
    themselves. *)

open Clanbft_sim
open Clanbft_types

type t

val create :
  engine:Engine.t ->
  n:int ->
  ?write_latency:Time.span ->
  ?write_bandwidth_mbps:float ->
  unit ->
  t
(** A store for a replica of an [n]-node committee: WAL records come from
    sources [0 .. n-1]. Defaults: 100 µs fixed latency per write plus
    400 MB/s sequential bandwidth — conservative figures for a cloud NVMe
    volume running a RocksDB WAL. *)

val put : t -> size:int -> on_durable:(unit -> unit) -> unit
(** Queue a write of [size] bytes; [on_durable] fires when it hits
    "disk". *)

val writes : t -> int
val bytes_written : t -> int
val backlog : t -> int
(** Writes queued but not yet durable. *)

(** {1 Write-ahead log}

    An ordered, deduplicated log used for crash recovery: a node journals
    every RBC delivery before acting on it and replays the log after a
    restart (see [docs/RECOVERY.md]). Appends pay the same simulated disk
    costs as {!put}.

    The log is one growable array of the records in append order, with a
    parallel unboxed array of the bytes each was charged; the disk queue is
    FIFO, so its durable records are a prefix and the writes still in
    flight are the tail. Dedup keeps one [int] per (round, source) slot in
    a {!Clanbft_util.Round_rows}, a bit per record kind. Besides the
    records themselves, the log holds about three words per record: its
    array entry and its size (one word each in a full array, two just
    after the arrays double), and its share of a row of [n] flag words,
    under one word when a round journals [n] vertices, [n] blocks and a
    marker. *)

type record =
  | Vertex of Vertex.t  (** an RBC-delivered vertex *)
  | Block of Block.t  (** a locally available block, with its payload *)
  | Proposed of int  (** this node proposes in the given round *)

val wal_append : t -> size:int -> record -> unit
(** Queue one log record, charged [size] bytes (its wire size). A record
    whose slot — kind, round and source — was already appended (durable
    {e or} still in flight) is skipped, so replay-then-relearn paths
    cannot double-journal a slot. The record becomes visible to
    {!wal_iter} once durable. Raises [Invalid_argument] for a source
    outside [0 .. n-1]. *)

val wal_size : t -> int
(** Durable WAL records. *)

val wal_iter : t -> (size:int -> record -> unit) -> unit
(** Iterate durable records, with the bytes each was charged, in
    durability order — the disk queue is FIFO, so this equals append
    order, and a prefix of it survives any crash. *)

val heap_roots : t -> Obj.t list
(** The WAL's tables, as {!Clanbft_obs.Prof.census} roots. *)

val crash : t -> unit
(** Simulate the node's process dying: writes scheduled but not yet
    durable are lost (their [on_durable] callbacks never fire, and WAL
    appends among them may be re-appended later), the queue resets to
    empty at the current simulated time. Durable state is untouched —
    that is the point of the WAL. *)
