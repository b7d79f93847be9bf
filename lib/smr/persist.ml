open Clanbft_sim
open Clanbft_types
module Prof = Clanbft_obs.Prof

let sec_append = Prof.section "wal.append"
let sec_replay = Prof.section "wal.replay"

type record = Vertex of Vertex.t | Block of Block.t | Proposed of int

(* Dedup identity of a record: its (kind, round, source) slot. A node marks
   each round it proposes in, so a marker's source is implicit. *)
let slot = function
  | Vertex v -> (0, v.round, v.source)
  | Block b -> (1, b.round, b.proposer)
  | Proposed round -> (2, round, 0)

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
  (* Write-ahead log: [wal] is the durable records in durability order
     (reversed); [wal_seen] maps every slot appended across the WAL's whole
     life to the bytes it was charged; [wal_pending] tracks appends queued
     but not yet on disk, so a crash can forget them. *)
  mutable wal : record list;
  mutable wal_count : int;
  wal_seen : (int * int * int, int) Hashtbl.t;
  wal_pending : (int * int * int, unit) Hashtbl.t;
}

let create ~engine ?(write_latency = Time.us 100)
    ?(write_bandwidth_mbps = 400.) () =
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
    wal = [];
    wal_count = 0;
    wal_seen = Hashtbl.create 1024;
    wal_pending = Hashtbl.create 64;
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

let wal_append t ~size record =
  Prof.enter sec_append;
  let slot = slot record in
  if not (Hashtbl.mem t.wal_seen slot) then begin
    Hashtbl.add t.wal_seen slot size;
    Hashtbl.add t.wal_pending slot ();
    put t ~size ~on_durable:(fun () ->
        Hashtbl.remove t.wal_pending slot;
        t.wal <- record :: t.wal;
        t.wal_count <- t.wal_count + 1)
  end;
  Prof.leave sec_append

let wal_size t = t.wal_count

let wal_iter t f =
  Prof.enter sec_replay;
  List.iter
    (fun record -> f ~size:(Hashtbl.find t.wal_seen (slot record)) record)
    (List.rev t.wal);
  Prof.leave sec_replay

(* Heap census: the WAL's own tables. The logged blocks and vertices are
   the values consensus holds, counted there. Per durable record a list
   cell (3 words) and its constructor box (2); per [wal_seen] entry a
   bucket (4) and its slot tuple (4); [wal_pending] shares the tuple. *)
let approx_live_words t =
  16 + (5 * t.wal_count)
  + (8 * Hashtbl.length t.wal_seen)
  + (4 * Hashtbl.length t.wal_pending)

let crash t =
  t.epoch <- t.epoch + 1;
  t.disk_free_at <- Engine.now t.engine;
  t.backlog <- 0;
  (* Appends that never reached the platter are lost: forget them so the
     recovered node can journal the same slot again. *)
  Hashtbl.iter (fun slot () -> Hashtbl.remove t.wal_seen slot) t.wal_pending;
  Hashtbl.reset t.wal_pending
