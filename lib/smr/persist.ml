open Clanbft_sim
open Clanbft_types
module Prof = Clanbft_obs.Prof
module Round_rows = Clanbft_util.Round_rows

let sec_append = Prof.section "wal.append"
let sec_replay = Prof.section "wal.replay"

type record = Vertex of Vertex.t | Block of Block.t | Proposed of int

(* Dedup identity of a record: its (kind, round, source) slot. A node marks
   each round it proposes in, so a marker's source is implicit. The kind is
   one bit of the slot's flags. *)
let kind_bit = function Vertex _ -> 1 | Block _ -> 2 | Proposed _ -> 4

let slot_round = function
  | Vertex v -> v.round
  | Block b -> b.round
  | Proposed round -> round

let slot_source = function Vertex v -> v.source | Block b -> b.proposer | Proposed _ -> 0

(* Fills the log's spare capacity; never appended. *)
let vacant = Proposed min_int

type t = {
  engine : Engine.t;
  write_latency : Time.span;
  bytes_per_us : float;
  mutable disk_free_at : Time.t; (* FIFO write queue head *)
  mutable writes : int;
  mutable bytes : int;
  mutable backlog : int;
  (* Writes scheduled before a crash but not yet durable belong to a dead
     epoch: their completion callbacks become no-ops (the OS buffer was
     lost with the process). *)
  mutable epoch : int;
  (* Write-ahead log: [wal.(i)] is the i-th append, charged [wal_sizes.(i)]
     bytes. The disk queue is FIFO, so appends become durable in append
     order: the first [wal_durable] are on disk and the rest, up to
     [wal_len], are still in flight. [wal_slots] holds, per (round, source),
     one bit per kind appended across the WAL's whole life. *)
  mutable wal : record array;
  mutable wal_sizes : int array;
  mutable wal_len : int;
  mutable wal_durable : int;
  wal_slots : int Round_rows.t;
}

let create ~engine ~n ?(write_latency = Time.us 100) ?(write_bandwidth_mbps = 400.) () =
  if write_bandwidth_mbps <= 0.0 then invalid_arg "Persist.create: bandwidth";
  {
    engine;
    write_latency;
    (* MB/s = bytes/µs numerically. *)
    bytes_per_us = write_bandwidth_mbps;
    disk_free_at = 0;
    writes = 0;
    bytes = 0;
    backlog = 0;
    epoch = 0;
    wal = [||];
    wal_sizes = [||];
    wal_len = 0;
    wal_durable = 0;
    wal_slots = Round_rows.create ~n;
  }

let put t ~size ~on_durable =
  if size < 0 then invalid_arg "Persist.put: negative size";
  let now = Engine.now t.engine in
  let transfer = int_of_float (ceil (float_of_int size /. t.bytes_per_us)) in
  let done_at = max now t.disk_free_at + t.write_latency + transfer in
  t.disk_free_at <- done_at;
  t.writes <- t.writes + 1;
  t.bytes <- t.bytes + size;
  t.backlog <- t.backlog + 1;
  let epoch = t.epoch in
  Engine.schedule_at t.engine done_at (fun () ->
      if t.epoch = epoch then begin
        t.backlog <- t.backlog - 1;
        on_durable ()
      end)

let writes t = t.writes
let bytes_written t = t.bytes
let backlog t = t.backlog

(* ------------------------------------------------------------------ *)
(* Write-ahead log *)

(* Double, so the log copies each record about once. *)
let grow t =
  let len = t.wal_len in
  let cap = max 64 (2 * len) in
  let wal = Array.make cap vacant and sizes = Array.make cap 0 in
  Array.blit t.wal 0 wal 0 len;
  Array.blit t.wal_sizes 0 sizes 0 len;
  t.wal <- wal;
  t.wal_sizes <- sizes

let wal_append t ~size record =
  Prof.enter sec_append;
  let round = slot_round record and source = slot_source record and bit = kind_bit record in
  let flags = Round_rows.find_or t.wal_slots ~round ~source 0 in
  if flags land bit = 0 then begin
    Round_rows.set t.wal_slots ~round ~source (flags lor bit);
    if t.wal_len = Array.length t.wal then grow t;
    t.wal.(t.wal_len) <- record;
    t.wal_sizes.(t.wal_len) <- size;
    t.wal_len <- t.wal_len + 1;
    put t ~size ~on_durable:(fun () -> t.wal_durable <- t.wal_durable + 1)
  end;
  Prof.leave sec_append

let wal_size t = t.wal_durable

let wal_iter t f =
  Prof.enter sec_replay;
  for i = 0 to t.wal_durable - 1 do
    f ~size:t.wal_sizes.(i) t.wal.(i)
  done;
  Prof.leave sec_replay

let heap_roots t = [ Obj.repr t.wal; Obj.repr t.wal_sizes; Obj.repr t.wal_slots ]

let crash t =
  t.epoch <- t.epoch + 1;
  t.disk_free_at <- Engine.now t.engine;
  t.backlog <- 0;
  (* Appends that never reached the platter are lost: forget them so the
     recovered node can journal the same slot again. *)
  for i = t.wal_durable to t.wal_len - 1 do
    let record = t.wal.(i) in
    let round = slot_round record and source = slot_source record in
    Round_rows.set t.wal_slots ~round ~source
      (Round_rows.find_or t.wal_slots ~round ~source 0 land lnot (kind_bit record));
    t.wal.(i) <- vacant
  done;
  t.wal_len <- t.wal_durable
