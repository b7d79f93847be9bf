module Heap = Clanbft_util.Heap
module Prof = Clanbft_obs.Prof

(* Self-profiler sections (docs/PROFILING.md): resolved once at module
   initialisation; disabled probes cost one branch each. *)
let sec_dispatch = Prof.section "engine.dispatch"
let sec_scan = Prof.section "engine.ring_scan"
let sec_migrate = Prof.section "engine.migrate"

(* The event queue is a calendar: a ring of buckets [bucket_width] µs wide
   whose events sit inline. Large experiments keep millions of events in
   flight, and a binary heap's O(log n) per operation dominated the whole
   simulator.

   A bucket is a circular chain of [chunk_len]-entry chunks drawn from one
   pool of [times]/[fns]/[args] arrays. Scheduling appends to the tail
   chunk, so a bucket holds its events in scheduling order. When the clock
   reaches a bucket, its entries are sorted once by µs offset into [order]
   (a counting sort, or an insertion sort for small buckets; both stable,
   so ties keep scheduling order) and drain through it. Events scheduled
   into the open bucket go to the [late] heap (FIFO ties); on equal times
   the sorted entries, scheduled earlier, run first. A drained bucket
   closes at once and its chunks rejoin the free list, so the next burst
   into it is sorted too, not heaped. Runs follow (time, scheduling order)
   exactly, so they stay deterministic.

   The ring covers the clock's bucket and those after it, [horizon] µs in
   all. A later event parks in an overflow heap and migrates in whenever
   the clock's bucket changes, so every overflow event stays at least one
   horizon past the clock's bucket. The ring starts at [initial_ring_bits]
   (4 ms, ample for the lib/check worlds that are rebuilt per branch) and
   doubles, up to [max_ring_bits], whenever the overflow heap holds more
   than [Int.max 1024 (pending / 8)] events: a few far-off round timers
   never trigger it, a WAN run's message delays do. It never shrinks.

   Pool entries, not heap cells, hold events: a delivery waits ~100 ms,
   long enough to be promoted and later swept by the major GC. A timer
   thunk is stored as the callback itself with argument 0, the
   representation of [()]. Overflow events take single entries, on a free
   list linked through [args]; both heaps hold entry positions. Once the
   pool, [order] and the heaps have grown to a run's peak, scheduling and
   running an event allocate nothing. *)

let bucket_bits = 10
let bucket_width = 1 lsl bucket_bits
let chunk_bits = 6
let chunk_len = 1 lsl chunk_bits
let initial_ring_bits = 12
let max_ring_bits = 22

(* Buckets up to this size sort by insertion; they fit in one chunk. *)
let small_bucket = 32

(* The end of a chunk list, and no open bucket. *)
let nil = -1

(* Free entries hold this, so the pool never pins a dead closure. *)
let no_ix (_ : int) = ()

(* A thunk as an event callback. [()] is the immediate 0, so applying the
   thunk to the argument 0 is applying it to [()]: one code path runs both
   kinds of event, and a timer allocates no wrapper. *)
let thunk_fn (fn : unit -> unit) : int -> unit = Obj.magic fn

(* Bucket-occupancy summary: one bit per ring bucket, 32 buckets per word
   (bit 63 of a native int is unavailable, and 32 keeps the index math to
   shifts). The next-bucket scan walks set bits instead of probing empty
   buckets one by one. *)
let summary_shift = 5

let word_mask = 0xFFFFFFFF

(* Trailing-zero count of a non-zero 32-bit value: byte probe + table.
   Runs on the next-bucket path, so it must not allocate. *)
let ctz8 =
  Array.init 256 (fun i ->
      if i = 0 then 8
      else begin
        let n = ref 0 in
        while i land (1 lsl !n) = 0 do
          incr n
        done;
        !n
      end)

let ctz x =
  if x land 0xFF <> 0 then ctz8.(x land 0xFF)
  else if x land 0xFF00 <> 0 then 8 + ctz8.((x lsr 8) land 0xFF)
  else if x land 0xFF0000 <> 0 then 16 + ctz8.((x lsr 16) land 0xFF)
  else 24 + ctz8.((x lsr 24) land 0xFF)

(* A delivery-choice point (model-checking hook): when choice mode is on,
   events scheduled through [schedule_choice_at]/[schedule_choice_ix_at]
   are parked in a pool instead of the calendar, and an external scheduler
   (lib/check) decides which one runs next via [fire_choice]. With choice
   mode off — the default — those entry points are exact aliases of the
   calendar ones, so the ordinary simulation path is bit-identical. Only
   the pool keeps events as values. *)
type choice = { id : int; time : Time.t; src : int; dst : int; tag : string }

type t = {
  mutable buckets : int array; (* ring index i: tail chunk at [2i], entry count at [2i + 1] *)
  mutable summary : int array; (* bit (i mod 32) of word (i / 32) ⇔ a closed bucket i holds events *)
  (* The chunk pool: entry [p] belongs to chunk [p lsr chunk_bits]. *)
  mutable times : int array;
  mutable fns : (int -> unit) array;
  mutable args : int array;
  mutable links : int array; (* chunk -> next: circular per bucket, [nil]-ended free list *)
  mutable free : int; (* free chunks *)
  mutable far_free : int; (* free overflow entries, linked through [args] *)
  overflow : int Heap.t; (* overflow entries, keyed by time *)
  (* The open bucket: always the clock's, when there is one. *)
  mutable cur : int; (* its bucket number, or [nil] *)
  mutable order : int array; (* its entries at opening, in (time, scheduling) order *)
  mutable next : int; (* [order.(next)] runs next *)
  mutable len : int;
  counts : int array; (* counting-sort histogram, zero between sorts *)
  late : int Heap.t; (* entries scheduled into it after it opened *)
  mutable clock : Time.t;
  mutable pending : int;
  mutable processed : int; (* dispatched, plus elided events *)
  mutable dispatched : int;
  mutable until : Time.t; (* the current [run]'s horizon; [min_int] outside [run] *)
  mutable choice_mode : bool;
  mutable next_choice_id : int;
  pool : (int, choice * (int -> unit) * int) Hashtbl.t; (* pending delivery choices *)
}

let initial_chunks = 4

let create () =
  let nb = 1 lsl (initial_ring_bits - bucket_bits) and entries = initial_chunks * chunk_len in
  {
    buckets = Array.make (2 * nb) 0;
    summary = Array.make 1 0;
    times = Array.make entries 0;
    fns = Array.make entries no_ix;
    args = Array.make entries 0;
    links = Array.init initial_chunks (fun c -> if c = initial_chunks - 1 then nil else c + 1);
    free = 0;
    far_free = nil;
    overflow = Heap.create ~capacity:16 ~dummy:nil ();
    cur = nil;
    order = Array.make chunk_len 0;
    next = 0;
    len = 0;
    counts = Array.make (bucket_width + 1) 0;
    late = Heap.create ~capacity:16 ~dummy:nil ();
    clock = 0;
    pending = 0;
    processed = 0;
    dispatched = 0;
    until = min_int;
    choice_mode = false;
    next_choice_id = 0;
    pool = Hashtbl.create 64;
  }

let now t = t.clock
let[@inline] ring_len t = Array.length t.buckets lsr 1
let horizon t = ring_len t lsl bucket_bits

(* The calendar's data, for the heap census: no closure is reachable. *)
let heap_roots t =
  List.map Obj.repr [ t.buckets; t.summary; t.times; t.args; t.links; t.order; t.counts ]
  @ [ Obj.repr t.late; Obj.repr t.overflow ]

(* Double the pool; the new chunks become the free list. *)
let grow_pool t =
  let chunks = Array.length t.links in
  let extend a fill =
    let len = Array.length a in
    let a' = Array.make (2 * len) fill in
    Array.blit a 0 a' 0 len;
    a'
  in
  t.times <- extend t.times 0;
  t.fns <- extend t.fns no_ix;
  t.args <- extend t.args 0;
  let links = extend t.links nil in
  for c = chunks to (2 * chunks) - 2 do
    links.(c) <- c + 1
  done;
  t.links <- links;
  t.free <- chunks

let take_chunk t =
  if t.free = nil then grow_pool t;
  let c = t.free in
  t.free <- t.links.(c);
  c

let[@inline] mark t idx =
  let w = idx lsr summary_shift in
  t.summary.(w) <- t.summary.(w) lor (1 lsl (idx land 31))

(* Append an event to ring bucket [idx]'s chain. *)
let append t idx time fn arg =
  let n = t.buckets.((2 * idx) + 1) in
  let k = n land (chunk_len - 1) in
  let c =
    if k <> 0 then t.buckets.(2 * idx)
    else begin
      let c = take_chunk t in
      let tail = if n = 0 then c else t.buckets.(2 * idx) in
      t.links.(c) <- t.links.(tail);
      t.links.(tail) <- c;
      t.buckets.(2 * idx) <- c;
      c
    end
  in
  t.buckets.((2 * idx) + 1) <- n + 1;
  let p = (c lsl chunk_bits) lor k in
  t.times.(p) <- time;
  t.fns.(p) <- fn;
  t.args.(p) <- arg;
  p

(* Move overflow events whose bucket the ring now covers. They land past
   the open bucket, in buckets no direct insert has reached yet, so they
   keep their (time, scheduling) order. *)
let migrate t =
  Prof.enter sec_migrate;
  let nb = ring_len t and cb = t.clock lsr bucket_bits in
  while
    (not (Heap.is_empty t.overflow))
    && (Heap.min_priority t.overflow lsr bucket_bits) - cb < nb
  do
    let time = Heap.min_priority t.overflow in
    let f = Heap.pop_data t.overflow in
    let idx = (time lsr bucket_bits) land (nb - 1) in
    ignore (append t idx time t.fns.(f) t.args.(f) : int);
    mark t idx;
    t.fns.(f) <- no_ix;
    t.args.(f) <- t.far_free;
    t.far_free <- f
  done;
  Prof.leave sec_migrate

(* Double the ring while the overflow heap holds a real share of the
   pending events. Ring buckets lie in [clock's bucket, + ring length), so
   each chain moves whole to its bucket's index in the wider ring, the open
   one included; the migration then pulls in the overflow events the new
   horizon covers. Neither step reorders events. *)
let grow_ring t =
  let nb = ring_len t in
  let nb' = 2 * nb and cb = t.clock lsr bucket_bits in
  let old = t.buckets in
  t.buckets <- Array.make (2 * nb') 0;
  t.summary <- Array.make (Int.max 1 (nb' lsr summary_shift)) 0;
  for idx = 0 to nb - 1 do
    if old.((2 * idx) + 1) > 0 then begin
      let b = cb + ((idx - cb) land (nb - 1)) in
      let idx' = b land (nb' - 1) in
      t.buckets.(2 * idx') <- old.(2 * idx);
      t.buckets.((2 * idx') + 1) <- old.((2 * idx) + 1);
      if b <> t.cur then mark t idx'
    end
  done;
  migrate t

let schedule_ix_at t time fn arg =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  t.pending <- t.pending + 1;
  let b = time lsr bucket_bits and nb = ring_len t in
  if b - (t.clock lsr bucket_bits) < nb then begin
    let idx = b land (nb - 1) in
    let p = append t idx time fn arg in
    if b = t.cur then Heap.push t.late time p else mark t idx
  end
  else begin
    if t.far_free = nil then begin
      let base = take_chunk t lsl chunk_bits in
      for p = base to base + chunk_len - 2 do
        t.args.(p) <- p + 1
      done;
      t.args.(base + chunk_len - 1) <- nil;
      t.far_free <- base
    end;
    let f = t.far_free in
    t.far_free <- t.args.(f);
    t.fns.(f) <- fn;
    t.args.(f) <- arg;
    Heap.push t.overflow time f;
    if
      Heap.length t.overflow > Int.max 1024 (t.pending / 8)
      && nb < 1 lsl (max_ring_bits - bucket_bits)
    then grow_ring t
  end

let schedule_at t time fn = schedule_ix_at t time (thunk_fn fn) 0

let schedule_after t span fn =
  if span < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock + span) fn

(* ---- delivery-choice points ---- *)

let set_choice_mode t on = t.choice_mode <- on

let pool_add t time ~src ~dst ~tag fn arg =
  let id = t.next_choice_id in
  t.next_choice_id <- id + 1;
  Hashtbl.replace t.pool id ({ id; time; src; dst; tag }, fn, arg)

let schedule_choice_at t time ~src ~dst ~tag fn =
  if t.choice_mode then pool_add t time ~src ~dst ~tag (thunk_fn fn) 0
  else schedule_at t time fn

let schedule_choice_ix_at t time ~src ~dst ~tag fn arg =
  if t.choice_mode then pool_add t time ~src ~dst ~tag fn arg
  else schedule_ix_at t time fn arg

let choices t =
  let cs = Hashtbl.fold (fun _ (c, _, _) acc -> c :: acc) t.pool [] in
  List.sort (fun a b -> compare a.id b.id) cs

let choice_count t = Hashtbl.length t.pool

let fire_choice t id =
  match Hashtbl.find_opt t.pool id with
  | None -> invalid_arg "Engine.fire_choice: unknown or already-fired choice"
  | Some (_, fn, arg) ->
      Hashtbl.remove t.pool id;
      t.processed <- t.processed + 1;
      t.dispatched <- t.dispatched + 1;
      fn arg

let drop_choice t id =
  if not (Hashtbl.mem t.pool id) then
    invalid_arg "Engine.drop_choice: unknown or already-fired choice";
  Hashtbl.remove t.pool id

(* Every move of the clock to another bucket goes through here, so
   overflow events are always at least one horizon past the clock's
   bucket. Without that, an overflow event could migrate into a bucket
   after a later event for the same µs was appended there directly, and
   run behind it. *)
let set_clock t time =
  let moved = time lsr bucket_bits <> t.clock lsr bucket_bits in
  t.clock <- time;
  if moved then migrate t

(* Earliest non-empty closed bucket, by walking the occupancy summary's
   set bits from the clock's own bucket. Buckets are visited in circular
   index order, which is ascending bucket order: every ring event lies in
   the ring's span from the clock's bucket (schedule guarantees it on
   insert, and the clock never leaves a bucket holding events). Returns
   the bucket number, or [nil] when the ring is empty — plain loops and an
   int sentinel because this runs once per bucket and must not allocate. *)
let[@inline] bucket_of t ~start w bits =
  let idx = (w lsl summary_shift) lor ctz bits in
  (t.clock lsr bucket_bits) + ((idx - start) land (ring_len t - 1))

let scan_ring t =
  let start = (t.clock lsr bucket_bits) land (ring_len t - 1) in
  let w0 = start lsr summary_shift and b0 = start land 31 and nw = Array.length t.summary in
  let res = ref nil and i = ref 0 in
  (* The start word's high bits first, its low bits last, after the wrap. *)
  while !res = nil && !i <= nw do
    let w = (w0 + !i) land (nw - 1) in
    let keep = if !i = 0 then word_mask lsl b0 else if !i = nw then (1 lsl b0) - 1 else word_mask in
    let bits = t.summary.(w) land keep in
    if bits <> 0 then res := bucket_of t ~start w bits;
    incr i
  done;
  !res

(* Sort bucket [b]'s entries into [order] and make it the open bucket. *)
let open_bucket t b =
  let idx = b land (ring_len t - 1) in
  let w = idx lsr summary_shift in
  t.summary.(w) <- t.summary.(w) land lnot (1 lsl (idx land 31));
  t.cur <- b;
  let n = t.buckets.((2 * idx) + 1) in
  if Array.length t.order < n then t.order <- Array.make (Int.max n (2 * Array.length t.order)) 0;
  let order = t.order and times = t.times in
  let head = t.links.(t.buckets.(2 * idx)) in
  if n <= small_bucket then
    for k = 0 to n - 1 do
      let p = (head lsl chunk_bits) lor k in
      let time = times.(p) in
      let j = ref k in
      while !j > 0 && times.(order.(!j - 1)) > time do
        order.(!j) <- order.(!j - 1);
        decr j
      done;
      order.(!j) <- p
    done
  else begin
    (* Counting sort by µs offset, over the offsets present. *)
    let counts = t.counts and mask = bucket_width - 1 in
    let lo = ref bucket_width and hi = ref 0 in
    let c = ref head in
    for i = 0 to n - 1 do
      let o = times.((!c lsl chunk_bits) lor (i land (chunk_len - 1))) land mask in
      counts.(o + 1) <- counts.(o + 1) + 1;
      if o < !lo then lo := o;
      if o > !hi then hi := o;
      if i land (chunk_len - 1) = chunk_len - 1 then c := t.links.(!c)
    done;
    for o = !lo + 1 to !hi do
      counts.(o) <- counts.(o) + counts.(o - 1)
    done;
    c := head;
    for i = 0 to n - 1 do
      let p = (!c lsl chunk_bits) lor (i land (chunk_len - 1)) in
      let o = times.(p) land mask in
      order.(counts.(o)) <- p;
      counts.(o) <- counts.(o) + 1;
      if i land (chunk_len - 1) = chunk_len - 1 then c := t.links.(!c)
    done;
    Array.fill counts !lo (!hi - !lo + 2) 0
  end;
  t.next <- 0;
  t.len <- n

(* Close the drained open bucket: its chunks rejoin the free list. Every
   entry was dispatched, which cleared its callback. *)
let close t =
  let idx = t.cur land (ring_len t - 1) in
  let tail = t.buckets.(2 * idx) in
  let head = t.links.(tail) in
  t.links.(tail) <- t.free;
  t.free <- head;
  t.buckets.((2 * idx) + 1) <- 0;
  t.cur <- nil

(* Open the bucket of the next pending event, if that event may lie at or
   before [hrz]. The clock moves at most to the bucket's start or to the
   earliest overflow event, never past [hrz]: a [run ~until] that stops
   short leaves every overflow event where it belongs. *)
let rec open_next t hrz =
  t.pending > 0
  && begin
       Prof.enter sec_scan;
       let b = scan_ring t in
       let opens = b <> nil && (b = t.clock lsr bucket_bits || b lsl bucket_bits <= hrz) in
       if opens then begin
         set_clock t (Int.max t.clock (b lsl bucket_bits));
         open_bucket t b
       end;
       Prof.leave sec_scan;
       opens
       || b = nil
          && (not (Heap.is_empty t.overflow))
          && Heap.min_priority t.overflow <= hrz
          && begin
               (* Ring empty: only overflow events remain. Jump the clock
                  to the earliest, which migrates it, and rescan. *)
               set_clock t (Heap.min_priority t.overflow);
               open_next t hrz
             end
     end

(* The entry of the next event, if it lies at or before [hrz], taken off
   the queue; [nil] otherwise. *)
let rec pop t hrz =
  if
    t.next < t.len
    && (Heap.is_empty t.late || t.times.(t.order.(t.next)) <= Heap.min_priority t.late)
  then begin
    let p = t.order.(t.next) in
    if t.times.(p) <= hrz then begin
      t.next <- t.next + 1;
      p
    end
    else nil
  end
  else if not (Heap.is_empty t.late) then
    if Heap.min_priority t.late <= hrz then Heap.pop_data t.late else nil
  else if t.cur <> nil then (close t; pop t hrz)
  else if open_next t hrz then pop t hrz
  else nil

(* Clear the entry, then run it: the callback may schedule. *)
let dispatch t p =
  let fn = t.fns.(p) and arg = t.args.(p) in
  t.clock <- t.times.(p);
  t.fns.(p) <- no_ix;
  t.pending <- t.pending - 1;
  t.processed <- t.processed + 1;
  t.dispatched <- t.dispatched + 1;
  Prof.enter sec_dispatch;
  fn arg;
  Prof.leave sec_dispatch

let step t =
  let p = pop t max_int in
  if p = nil then false
  else begin
    dispatch t p;
    true
  end

let run ?until t =
  let hrz = match until with None -> max_int | Some h -> h in
  t.until <- hrz;
  let p = ref (pop t hrz) in
  while !p <> nil do
    dispatch t !p;
    p := pop t hrz
  done;
  t.until <- min_int;
  match until with Some hrz when t.clock < hrz -> set_clock t hrz | _ -> ()

(* An event at [time] that would do nothing when run: counting it now
   instead of scheduling it is invisible at the end of this [run], where
   the scheduled event would have run too. Choice mode keeps every event,
   so the external scheduler sees the same pool. *)
let elide t time =
  if t.choice_mode || time > t.until || time < t.clock then false
  else begin
    t.processed <- t.processed + 1;
    true
  end

let pending t = t.pending
let events_processed t = t.processed
let events_dispatched t = t.dispatched
