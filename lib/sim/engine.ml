module Heap = Clanbft_util.Heap
module Prof = Clanbft_obs.Prof

(* Self-profiler sections (docs/PROFILING.md): resolved once at module
   initialisation; disabled probes cost one branch each. *)
let sec_dispatch = Prof.section "engine.dispatch"
let sec_scan = Prof.section "engine.ring_scan"
let sec_migrate = Prof.section "engine.migrate"

(* The event queue is a calendar (bucket ring) keyed by microsecond
   timestamp: large experiments keep millions of events in flight, and a
   binary heap's O(log n) per operation dominated the whole simulator. The
   ring covers [Array.length ring] µs ahead of the clock (its horizon); an
   event scheduled further out parks in an overflow heap and migrates into
   the ring as the clock approaches. Within a microsecond, events run in
   scheduling order (buckets are LIFO chains, reversed in place on drain,
   and the heap breaks priority ties FIFO), so runs stay deterministic.

   The ring sizes itself from the traffic. It starts at [initial_ring_bits]
   (4 ms, ample for the lib/check worlds that are rebuilt per branch) and
   doubles, up to [max_ring_bits], whenever the overflow heap holds a real
   share of the pending events: more than [max 1024 (pending / 8)]. A few
   far-off round timers never trigger it; a WAN run's message delays do, and
   grow the ring to about the longest delay in flight. It never shrinks.

   Events live in a struct-of-arrays slot pool, not in heap cells: an
   in-flight delivery waits ~100 ms, long enough to outlive a minor
   collection, so a per-event cell was promoted and later swept by the
   major GC. A slot is an index into parallel arrays (callback, int
   argument, thunk, [next] link); the ring, the current-µs queue and the
   drain list are chains through [next], the overflow heap holds slot
   indices, and freed slots go on a free list that doubles on demand. After
   the pool has grown, scheduling and running an event allocate nothing. *)

let initial_ring_bits = 12
let max_ring_bits = 22

(* The end of a slot chain, and an empty bucket. *)
let nil = -1

(* Free slots hold these, so the pool never pins a dead closure. A slot
   whose thunk is [no_thunk] runs [fn arg]; any other runs the thunk. *)
let no_ix (_ : int) = ()
let no_thunk () = ()

(* Bucket-occupancy summary: one bit per ring bucket, 32 buckets per word
   (bit 63 of a native int is unavailable, and 32 keeps the index math to
   shifts). The next-event scan walks set bits instead of probing empty
   buckets µs by µs — with a mean inter-event gap of tens of µs, that turns
   ~20 array loads per advance into one or two. *)
let summary_shift = 5

let word_mask = 0xFFFFFFFF

(* Trailing-zero count of a non-zero 32-bit value: byte probe + table.
   Runs on the next-event path, so it must not allocate. *)
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
type event = Fn of (unit -> unit) | Ix of (int -> unit) * int

type t = {
  mutable ring : int array; (* bucket -> head slot of its LIFO chain, or [nil] *)
  mutable summary : int array; (* bit (i mod 32) of word (i / 32) ⇔ ring.(i) <> nil *)
  overflow : int Heap.t; (* slots past the horizon, keyed by time *)
  mutable now_head : int; (* FIFO chain scheduled for the current µs *)
  mutable now_tail : int;
  mutable drain : int; (* current bucket, FIFO chain *)
  (* The slot pool. *)
  mutable fns : (int -> unit) array;
  mutable args : int array;
  mutable thunks : (unit -> unit) array;
  mutable next : int array;
  mutable free : int; (* free-list head *)
  mutable clock : Time.t;
  mutable pending : int;
  mutable processed : int; (* dispatched, plus elided events *)
  mutable dispatched : int;
  mutable until : Time.t; (* the current [run]'s horizon; [min_int] outside [run] *)
  mutable choice_mode : bool;
  mutable next_choice_id : int;
  pool : (int, choice * event) Hashtbl.t; (* pending delivery choices *)
}

let initial_slots = 64

(* A chain through [next] over the fresh slots [lo, hi). *)
let link_free next lo hi =
  for i = lo to hi - 2 do
    next.(i) <- i + 1
  done;
  next.(hi - 1) <- nil

let create () =
  let len = 1 lsl initial_ring_bits in
  let next = Array.make initial_slots nil in
  link_free next 0 initial_slots;
  {
    ring = Array.make len nil;
    summary = Array.make (len lsr summary_shift) 0;
    overflow = Heap.create ~capacity:64 ~dummy:nil ();
    now_head = nil;
    now_tail = nil;
    drain = nil;
    fns = Array.make initial_slots no_ix;
    args = Array.make initial_slots 0;
    thunks = Array.make initial_slots no_thunk;
    next;
    free = 0;
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
let horizon t = Array.length t.ring

(* The calendar's data, for the heap census: no closure is reachable. *)
let heap_roots t =
  [ Obj.repr t.ring; Obj.repr t.summary; Obj.repr t.next; Obj.repr t.args; Obj.repr t.overflow ]

(* Double the pool; the new half becomes the free list. *)
let grow t =
  let cap = Array.length t.next in
  let extend a fill =
    let a' = Array.make (2 * cap) fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.fns <- extend t.fns no_ix;
  t.args <- extend t.args 0;
  t.thunks <- extend t.thunks no_thunk;
  let next = extend t.next nil in
  link_free next cap (2 * cap);
  t.next <- next;
  t.free <- cap

let alloc t time =
  if time < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  if t.free = nil then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  s

let ring_insert t idx s =
  t.next.(s) <- t.ring.(idx);
  t.ring.(idx) <- s;
  let w = idx lsr summary_shift in
  t.summary.(w) <- t.summary.(w) lor (1 lsl (idx land 31))

(* Move overflow events that now fit in the ring. *)
let migrate t =
  Prof.enter sec_migrate;
  let len = Array.length t.ring in
  while
    (not (Heap.is_empty t.overflow)) && Heap.min_priority t.overflow - t.clock < len
  do
    let idx = Heap.min_priority t.overflow land (len - 1) in
    ring_insert t idx (Heap.pop_data t.overflow)
  done;
  Prof.leave sec_migrate

(* Double the ring while the overflow heap holds a real share of the
   pending events. Ring events lie in (clock, clock + len), so each bucket
   holds one instant and its chain moves whole to that instant's bucket in
   the wider ring; the migration then pulls in the overflow events the new
   horizon covers, keeping every overflow event at least one horizon past
   the clock. Neither step reorders events of one instant. *)
let grow_ring t =
  let len = Array.length t.ring in
  let len' = 2 * len in
  let ring = Array.make len' nil and summary = Array.make (len' lsr summary_shift) 0 in
  for idx = 0 to len - 1 do
    let s = t.ring.(idx) in
    if s <> nil then begin
      let time = t.clock + 1 + ((idx - t.clock - 1) land (len - 1)) in
      let idx' = time land (len' - 1) in
      ring.(idx') <- s;
      let w = idx' lsr summary_shift in
      summary.(w) <- summary.(w) lor (1 lsl (idx' land 31))
    end
  done;
  t.ring <- ring;
  t.summary <- summary;
  migrate t

let enqueue t time s =
  t.pending <- t.pending + 1;
  if time = t.clock then begin
    t.next.(s) <- nil;
    if t.now_tail = nil then t.now_head <- s else t.next.(t.now_tail) <- s;
    t.now_tail <- s
  end
  else if time - t.clock < Array.length t.ring then
    ring_insert t (time land (Array.length t.ring - 1)) s
  else begin
    Heap.push t.overflow time s;
    if
      Heap.length t.overflow > max 1024 (t.pending / 8)
      && Array.length t.ring < 1 lsl max_ring_bits
    then grow_ring t
  end

let schedule_at t time fn =
  let s = alloc t time in
  t.thunks.(s) <- fn;
  enqueue t time s

let schedule_ix_at t time fn arg =
  let s = alloc t time in
  t.fns.(s) <- fn;
  t.args.(s) <- arg;
  enqueue t time s

let schedule_after t span fn =
  if span < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock + span) fn

(* ---- delivery-choice points ---- *)

let set_choice_mode t on = t.choice_mode <- on

let pool_add t time ~src ~dst ~tag ev =
  let id = t.next_choice_id in
  t.next_choice_id <- id + 1;
  Hashtbl.replace t.pool id ({ id; time; src; dst; tag }, ev)

let schedule_choice_at t time ~src ~dst ~tag fn =
  if t.choice_mode then pool_add t time ~src ~dst ~tag (Fn fn)
  else schedule_at t time fn

let schedule_choice_ix_at t time ~src ~dst ~tag fn arg =
  if t.choice_mode then pool_add t time ~src ~dst ~tag (Ix (fn, arg))
  else schedule_ix_at t time fn arg

let choices t =
  let cs = Hashtbl.fold (fun _ (c, _) acc -> c :: acc) t.pool [] in
  List.sort (fun a b -> compare a.id b.id) cs

let choice_count t = Hashtbl.length t.pool

let fire_choice t id =
  match Hashtbl.find_opt t.pool id with
  | None -> invalid_arg "Engine.fire_choice: unknown or already-fired choice"
  | Some (_, ev) ->
      Hashtbl.remove t.pool id;
      t.processed <- t.processed + 1;
      t.dispatched <- t.dispatched + 1;
      (match ev with Fn fn -> fn () | Ix (fn, arg) -> fn arg)

let drop_choice t id =
  if not (Hashtbl.mem t.pool id) then
    invalid_arg "Engine.drop_choice: unknown or already-fired choice";
  Hashtbl.remove t.pool id

(* Every clock move goes through here, so overflow events are always at
   least one horizon past the clock. Without that, an overflow event could
   migrate into a bucket after a later event for the same µs was inserted
   there directly, and run behind it. *)
let set_clock t time =
  t.clock <- time;
  migrate t

(* Earliest non-empty ring bucket at a time in (clock, clock + horizon), by
   walking the occupancy summary's set bits. Buckets are visited in
   circular index order starting just past the clock, which is exactly
   ascending time order: every ring event lies within one horizon of the
   clock (enqueue guarantees it on insert, and the clock never passes an
   event without draining its bucket). Returns the event time, or
   [max_int] when the whole ring is empty — plain loops and an int
   sentinel because this runs once per bucket advance and must not
   allocate. *)
let[@inline] bucket_time t ~start w bits =
  let idx = (w lsl summary_shift) lor ctz bits in
  t.clock + 1 + ((idx - start) land (Array.length t.ring - 1))

let scan_ring t =
  Prof.enter sec_scan;
  let start = (t.clock + 1) land (Array.length t.ring - 1) in
  let w0 = start lsr summary_shift and b0 = start land 31 in
  let bits0 = t.summary.(w0) land (word_mask lsl b0) land word_mask in
  let time =
    if bits0 <> 0 then bucket_time t ~start w0 bits0
    else begin
      let res = ref max_int in
      let i = ref 1 in
      while !res = max_int && !i < Array.length t.summary do
        let w = (w0 + !i) land (Array.length t.summary - 1) in
        let bits = t.summary.(w) in
        if bits <> 0 then res := bucket_time t ~start w bits;
        incr i
      done;
      if !res = max_int then begin
        (* Wrapped: only the start word's low bits remain unseen. *)
        let bits = t.summary.(w0) land ((1 lsl b0) - 1) in
        if bits <> 0 then res := bucket_time t ~start w0 bits
      end;
      !res
    end
  in
  Prof.leave sec_scan;
  time

(* Time of the next pending event past the current instant, advancing the
   clock up to (but not past) it; [max_int] when nothing is pending. Only
   called once the current instant is exhausted. *)
let next_event_time t =
  if t.pending = 0 then max_int
  else begin
    let time = scan_ring t in
    if time <> max_int || Heap.is_empty t.overflow then time
    else begin
      (* Ring empty: only overflow events remain, all at least one horizon
         out. Jump the clock so the earliest fits, and rescan. *)
      set_clock t (Heap.min_priority t.overflow - Array.length t.ring + 1);
      scan_ring t
    end
  end

(* Reverse the chain from [s] in place, onto [acc]. *)
let rec reverse next s acc =
  if s = nil then acc
  else begin
    let rest = next.(s) in
    next.(s) <- acc;
    reverse next rest s
  end

(* Move the clock to [time] and its bucket, in scheduling order, to the
   drain chain. *)
let open_bucket t time =
  set_clock t time;
  let idx = time land (Array.length t.ring - 1) in
  t.drain <- reverse t.next t.ring.(idx) nil;
  t.ring.(idx) <- nil;
  let w = idx lsr summary_shift in
  t.summary.(w) <- t.summary.(w) land lnot (1 lsl (idx land 31))

(* The next slot at the current instant, or [nil]. Order within an
   instant: first the bucket's already-scheduled events (FIFO), then
   events scheduled for "now" while processing them. *)
let pop_current t =
  let s = t.drain in
  if s <> nil then begin
    t.drain <- t.next.(s);
    s
  end
  else begin
    let s = t.now_head in
    if s <> nil then begin
      t.now_head <- t.next.(s);
      if t.now_head = nil then t.now_tail <- nil
    end;
    s
  end

(* Free the slot, then run it: the callback may schedule, and reuse the
   slot at once. *)
let dispatch t s =
  let fn = t.fns.(s) and arg = t.args.(s) and thunk = t.thunks.(s) in
  if thunk == no_thunk then t.fns.(s) <- no_ix else t.thunks.(s) <- no_thunk;
  t.next.(s) <- t.free;
  t.free <- s;
  t.pending <- t.pending - 1;
  t.processed <- t.processed + 1;
  t.dispatched <- t.dispatched + 1;
  Prof.enter sec_dispatch;
  if thunk == no_thunk then fn arg else thunk ();
  Prof.leave sec_dispatch

let step t =
  let s = pop_current t in
  let s =
    if s <> nil then s
    else begin
      let time = next_event_time t in
      if time = max_int then nil
      else begin
        open_bucket t time;
        pop_current t
      end
    end
  in
  if s = nil then false
  else begin
    dispatch t s;
    true
  end

let run ?until t =
  let hrz = match until with None -> max_int | Some h -> h in
  t.until <- hrz;
  let continue = ref true in
  while !continue do
    let s = pop_current t in
    if s <> nil then dispatch t s
    else begin
      let time = next_event_time t in
      if time = max_int then continue := false
      else if time > hrz then begin
        set_clock t hrz;
        continue := false
      end
      else open_bucket t time
    end
  done;
  t.until <- min_int;
  match until with
  | Some hrz when t.clock < hrz && t.pending = 0 -> set_clock t hrz
  | _ -> ()

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
