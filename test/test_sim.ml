open Clanbft
open Clanbft.Sim
module Rng = Clanbft.Util.Rng

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_conversions () =
  Alcotest.(check int) "ms" 1_500 (Time.ms 1.5);
  Alcotest.(check int) "s" 2_000_000 (Time.s 2.0);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Time.to_ms 1_500);
  Alcotest.(check (float 1e-9)) "to_s" 2.0 (Time.to_s 2_000_000)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 300 (fun () -> log := 3 :: !log);
  Engine.schedule_at e 100 (fun () -> log := 1 :: !log);
  Engine.schedule_at e 200 (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 300 (Engine.now e)

let test_engine_fifo_same_time () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at e 50 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo within a microsecond" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_schedule_now () =
  (* An event scheduled for the current instant from inside a handler must
     still run, after already-queued same-instant events. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 10 (fun () ->
      log := "a" :: !log;
      Engine.schedule_after e 0 (fun () -> log := "c" :: !log));
  Engine.schedule_at e 10 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_at e 100 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e 50 (fun () -> ()))

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule_at e 100 (fun () -> incr ran);
  Engine.schedule_at e 900 (fun () -> incr ran);
  Engine.run ~until:500 e;
  Alcotest.(check int) "only first ran" 1 !ran;
  Alcotest.(check int) "clock parked at horizon" 500 (Engine.now e);
  Alcotest.(check int) "second still pending" 1 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "second runs later" 2 !ran

let test_engine_until_empty_queue () =
  let e = Engine.create () in
  Engine.run ~until:12345 e;
  Alcotest.(check int) "clock advances to horizon" 12345 (Engine.now e)

let test_engine_far_future () =
  (* Beyond the calendar ring horizon: exercises the overflow heap. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 20_000_000 (fun () -> log := "far" :: !log);
  Engine.schedule_at e 60_000_000 (fun () -> log := "farther" :: !log);
  Engine.schedule_at e 5 (fun () -> log := "near" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "all fire in order" [ "near"; "far"; "farther" ]
    (List.rev !log);
  Alcotest.(check int) "clock" 60_000_000 (Engine.now e)

(* An engine whose calendar ring has grown past its initial width: 4,096
   events in flight beyond the horizon, spread over 131 ms, force several
   doublings. Returned drained, with the clock past the burst. *)
let grown_engine () =
  let e = Engine.create () in
  let h0 = Engine.horizon e in
  for i = 1 to 4_096 do
    Engine.schedule_at e (h0 + (i * 32)) ignore
  done;
  Engine.run e;
  Alcotest.(check bool) "ring grew" true (Engine.horizon e >= 4 * h0);
  e

let test_engine_ring_horizon_boundary () =
  (* The calendar ring covers [clock, clock + horizon); an event exactly at
     the horizon parks in the overflow heap and must migrate back and fire
     at its precise microsecond, interleaved correctly with ring events —
     on a fresh ring and on one that traffic has grown. *)
  let check e =
    let base = Engine.now e and horizon = Engine.horizon e in
    let log = ref [] in
    let at dt tag = Engine.schedule_at e (base + dt) (fun () -> log := (tag, Engine.now e - base) :: !log) in
    at horizon "boundary";
    at (horizon - 1) "ring";
    at (horizon + 1) "past";
    Engine.run e;
    Alcotest.(check (list (pair string int)))
      "overflow events fire at their exact instants"
      [ ("ring", horizon - 1); ("boundary", horizon); ("past", horizon + 1) ]
      (List.rev !log);
    Alcotest.(check int) "three events do not grow the ring" horizon (Engine.horizon e)
  in
  check (Engine.create ());
  check (grown_engine ())

let test_engine_overflow_migration_keeps_time () =
  (* An overflow event whose slot the clock approaches gradually (so it
     migrates rather than being jumped to) shares its instant with a
     late-scheduled ring event; both must run at that exact time. *)
  let e = Engine.create () in
  let target = Engine.horizon e + 500 in
  let log = ref [] in
  Engine.schedule_at e target (fun () -> log := "overflow" :: !log);
  (* Walk the clock close enough that the overflow event enters the ring,
     then aim a second event at the same microsecond. *)
  Engine.schedule_at e 1_000 (fun () ->
      Engine.schedule_at e target (fun () -> log := "ring" :: !log));
  Engine.run e;
  Alcotest.(check bool) "both ran at the target instant" true
    (List.sort compare !log = [ "overflow"; "ring" ]);
  Alcotest.(check int) "clock at target" target (Engine.now e)

let test_engine_until_past_last_event () =
  (* [run ~until] with all events strictly before the horizon: the events
     run, and the clock is clamped forward to [until] afterwards. *)
  let e = Engine.create () in
  let ran = ref 0 in
  Engine.schedule_at e 100 (fun () -> incr ran);
  Engine.run ~until:500 e;
  Alcotest.(check int) "event ran" 1 !ran;
  Alcotest.(check int) "clock clamped to until" 500 (Engine.now e);
  (* An event exactly at [until] is within the window and runs. *)
  Engine.schedule_at e 800 (fun () -> incr ran);
  Engine.run ~until:800 e;
  Alcotest.(check int) "boundary event ran" 2 !ran;
  Alcotest.(check int) "clock at boundary" 800 (Engine.now e)

let test_engine_fifo_across_scheduling_instants () =
  (* Two events aimed at the same future microsecond from different
     scheduling instants run in scheduling order. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 1_000 (fun () -> log := "first" :: !log);
  Engine.schedule_at e 10 (fun () ->
      Engine.schedule_at e 1_000 (fun () -> log := "second" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "scheduling order preserved" [ "first"; "second" ]
    (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 100 then Engine.schedule_after e 1_000 tick
  in
  Engine.schedule_after e 1_000 tick;
  Engine.run e;
  Alcotest.(check int) "all ticks" 100 !count;
  Alcotest.(check int) "events processed" 100 (Engine.events_processed e)

let test_engine_last_ring_slot () =
  (* An event at horizon - 1 is the furthest that still fits in the ring;
     it must stay there (no overflow round-trip) and fire on time even when
     the ring index wraps (clock > 0 at scheduling time), on a fresh ring
     and on a grown one. *)
  let check e =
    let base = Engine.now e and horizon = Engine.horizon e in
    let log = ref [] in
    Engine.schedule_at e (base + 7) (fun () ->
        (* From clock = base + 7 the furthest ring slot is
           base + 7 + horizon - 1. *)
        Engine.schedule_after e (horizon - 1) (fun () ->
            log := ("edge", Engine.now e - base) :: !log));
    Engine.run e;
    Alcotest.(check (list (pair string int)))
      "edge-of-ring event fires at its exact instant"
      [ ("edge", 7 + horizon - 1) ]
      (List.rev !log)
  in
  check (Engine.create ());
  check (grown_engine ())

let test_engine_overflow_same_instant_fifo () =
  (* Several overflow events aimed at one microsecond migrate in the order
     they were scheduled (the heap breaks priority ties FIFO). *)
  let e = Engine.create () in
  let target = Engine.horizon e + 123 in
  let log = ref [] in
  for i = 1 to 4 do
    Engine.schedule_at e target (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "scheduling order survives the overflow heap"
    [ 1; 2; 3; 4 ] (List.rev !log)

let test_engine_mixed_event_kinds_fifo () =
  (* schedule_at and schedule_ix_at aimed at the same microsecond run in
     scheduling order regardless of event kind — the batched-delivery
     guarantee that keeps broadcast runs byte-identical to per-send runs. *)
  let e = Engine.create () in
  let log = ref [] in
  let shared tag = log := tag :: !log in
  Engine.schedule_at e 50 (fun () -> log := 0 :: !log);
  Engine.schedule_ix_at e 50 shared 1;
  Engine.schedule_at e 50 (fun () -> log := 2 :: !log);
  Engine.schedule_ix_at e 50 shared 3;
  Engine.run e;
  Alcotest.(check (list int)) "Fn and Ix interleave in scheduling order"
    [ 0; 1; 2; 3 ] (List.rev !log)

(* Minor-heap words [f] allocates, net of the measurement's own cost. *)
let minor_words f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  int_of_float (words f -. words ignore)

let test_engine_ix_allocates_nothing () =
  (* Once the chunk pool and the sort's order array have grown to the
     burst's size, scheduling and running indexed events allocates no heap
     word: the drained bucket closes, so the second burst into it is
     sorted again rather than sent through the late heap. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let count _ = incr fired in
  let burst () =
    let base = Engine.now e + 1 in
    for i = 0 to 9_999 do
      Engine.schedule_ix_at e (base + (i mod 100)) count i
    done;
    while Engine.step e do
      ()
    done
  in
  burst ();
  Alcotest.(check int) "burst allocates nothing" 0 (minor_words burst);
  Alcotest.(check int) "every event ran" 20_000 !fired

let test_engine_fifo_across_growth_reentry_migration () =
  (* Scheduling order within one microsecond survives the chunk pool
     doubling (four 64-entry chunks to start), events scheduled
     re-entrantly for the current microsecond, the overflow heap's
     migration into a bucket that later direct inserts share, and the ring
     doubling. Thunks and indexed events alternate throughout: they share
     one pool and one callback array. *)
  let e = Engine.create () in
  let log = ref [] in
  let note i = log := i :: !log in
  let schedule time i =
    if i land 1 = 0 then Engine.schedule_at e time (fun () -> note i)
    else Engine.schedule_ix_at e time note i
  in
  let far = Engine.horizon e + 1_000 in
  (* 0..99 at t = 500; the first of them adds 100..199 at t = 500 *)
  Engine.schedule_at e 500 (fun () ->
      note 0;
      for i = 100 to 199 do
        schedule 500 i
      done);
  for i = 1 to 99 do
    schedule 500 i
  done;
  (* 200..279 past the horizon, then 280..359 aimed at the same
     microsecond from t = 2_000, once it is within the ring's reach *)
  for i = 200 to 279 do
    schedule far i
  done;
  Engine.schedule_at e 2_000 (fun () ->
      for i = 280 to 359 do
        schedule far i
      done);
  Engine.run ~until:500 e;
  Alcotest.(check (list int)) "growth and re-entry" (List.init 200 Fun.id) (List.rev !log);
  log := [];
  Engine.run e;
  Alcotest.(check (list int)) "overflow migration" (List.init 160 (fun i -> 200 + i))
    (List.rev !log);
  Alcotest.(check int) "clock at the far instant" far (Engine.now e);
  (* More than 1,024 events past the horizon double the ring; the ones the
     wider ring covers migrate into it, the rest stay in the heap. *)
  let h = Engine.horizon e in
  let time i = far + h + (i * 7 mod 10 * (h / 6)) in
  log := [];
  for i = 0 to 1_099 do
    schedule (time i) i
  done;
  Alcotest.(check bool) "ring doubled" true (Engine.horizon e >= 2 * h);
  Engine.run e;
  let by_time = List.stable_sort (fun a b -> Int.compare (time a) (time b)) in
  Alcotest.(check (list int)) "ring growth" (by_time (List.init 1_100 Fun.id)) (List.rev !log)

(* The calendar's buckets are 1,024 µs wide, so multiples of 1,024 are
   bucket edges. Each test logs (tag, time) and checks the execution. *)
let logging_engine () =
  let e = Engine.create () in
  let log = ref [] in
  let at time tag = Engine.schedule_at e time (fun () -> log := (tag, Engine.now e) :: !log) in
  (e, at, fun () -> List.rev !log)

let check_log = Alcotest.(check (list (pair string int)))

let test_engine_bucket_edges () =
  (* Events just before and after several edges, scheduled out of order,
     run in time order, and ties at an edge keep scheduling order. *)
  let e, at, log = logging_engine () in
  List.iter
    (fun (time, tag) -> at time tag)
    [ (2_048, "e2a"); (1_024, "e1"); (2_047, "b2"); (1_023, "b1"); (2_049, "a2"); (2_048, "e2b"); (1_025, "a1") ];
  Engine.run e;
  check_log "time order across edges"
    [ ("b1", 1_023); ("e1", 1_024); ("a1", 1_025); ("b2", 2_047); ("e2a", 2_048); ("e2b", 2_048); ("a2", 2_049) ]
    (log ())

let test_engine_reentry_open_bucket () =
  (* A running event schedules into its own bucket, at its own µs and at
     later ones; those run after the bucket's earlier-scheduled events of
     the same µs, in scheduling order among themselves. *)
  let e, at, log = logging_engine () in
  Engine.schedule_at e 2_050 (fun () ->
      at 2_060 "y";
      at 2_050 "x";
      at 2_055 "z";
      at 2_050 "x2");
  at 2_050 "b";
  at 2_055 "c";
  at 2_060 "d";
  Engine.run e;
  check_log "sorted entries first, then re-entrant ones"
    [ ("b", 2_050); ("x", 2_050); ("x2", 2_050); ("c", 2_055); ("z", 2_055); ("d", 2_060); ("y", 2_060) ]
    (log ())

let test_engine_until_inside_bucket () =
  (* [run ~until] stops inside an open bucket; events then scheduled
     earlier in that bucket, or at its pending event's µs, keep (time,
     scheduling) order. *)
  let e, at, log = logging_engine () in
  at 4_100 "first";
  at 4_900 "pending";
  Engine.run ~until:4_500 e;
  Alcotest.(check int) "clock at until" 4_500 (Engine.now e);
  at 4_900 "tie";
  at 4_600 "earlier";
  at 4_500 "now";
  Engine.run e;
  check_log "merged in time order"
    [ ("first", 4_100); ("now", 4_500); ("earlier", 4_600); ("pending", 4_900); ("tie", 4_900) ]
    (log ())

let test_engine_growth_open_bucket () =
  (* The ring doubles while a bucket is open: its sorted and re-entrant
     events, scheduled before and after the growth, keep their order, and
     the far events that forced the growth run after them in time order. *)
  let e, at, log = logging_engine () in
  let h0 = Engine.horizon e in
  Engine.schedule_at e 5_000 (fun () ->
      at 5_015 "l1";
      for i = 0 to 1_099 do
        at (5_000 + (4 * h0) + (i mod 7)) (string_of_int (i mod 7))
      done;
      Alcotest.(check bool) "ring grew inside the bucket" true (Engine.horizon e > h0);
      at 5_015 "l2";
      at 5_005 "l3");
  at 5_010 "b";
  at 5_020 "c";
  Engine.run e;
  let open_bucket, far = List.partition (fun (_, t) -> t < 6_000) (log ()) in
  check_log "open bucket order"
    [ ("l3", 5_005); ("b", 5_010); ("l1", 5_015); ("l2", 5_015); ("c", 5_020) ]
    open_bucket;
  let want =
    List.init 7 (fun k -> List.init 1_100 Fun.id |> List.filter (fun i -> i mod 7 = k))
    |> List.concat_map (List.map (fun i -> (string_of_int (i mod 7), 5_000 + (4 * h0) + (i mod 7))))
  in
  check_log "far events in time order" want far

let test_engine_until_far_only () =
  (* Regression: with only a far event pending, [run ~until] jumped the
     clock toward that event before comparing with [until], then set it
     back, which left the event in the ring a horizon early: it ran at
     1,002,752 instead of 20,000,000, and ahead of events scheduled for
     earlier times. *)
  let e, at, log = logging_engine () in
  at 20_000_000 "far";
  Engine.run ~until:1_000_000 e;
  Alcotest.(check int) "clock at until" 1_000_000 (Engine.now e);
  at 1_500_000 "earlier";
  Engine.run e;
  check_log "each at its own time" [ ("earlier", 1_500_000); ("far", 20_000_000) ] (log ())

let test_engine_step () =
  let e = Engine.create () in
  Alcotest.(check bool) "empty step" false (Engine.step e);
  Engine.schedule_at e 10 (fun () -> ());
  Alcotest.(check bool) "one step" true (Engine.step e);
  Alcotest.(check bool) "drained" false (Engine.step e)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_table1 () =
  let t = Topology.gcp_table1 ~n:10 in
  (* node 0 -> us-east1, node 2 -> europe-north1: RTT 114.75ms, one-way half *)
  Alcotest.(check int) "us-east1 to europe-north1" 57_375 (Topology.one_way t ~src:0 ~dst:2);
  Alcotest.(check int) "europe-north1 to us-east1" 57_700 (Topology.one_way t ~src:2 ~dst:0);
  Alcotest.(check string) "region of node 7" "europe-north1" (Topology.region_name t 7);
  Alcotest.(check int) "loopback region delay" 375 (Topology.one_way t ~src:0 ~dst:5)

let test_topology_uniform () =
  let t = Topology.uniform ~n:4 ~one_way_ms:25.0 in
  Alcotest.(check int) "uniform" 25_000 (Topology.one_way t ~src:0 ~dst:3)

let test_topology_validation () =
  Alcotest.check_raises "bad region" (Invalid_argument "Topology.custom: bad region")
    (fun () ->
      ignore
        (Topology.custom ~n:2 ~region_of:(fun _ -> 5) ~regions:[| "a" |]
           ~rtt_ms:[| [| 0.1 |] |]))

(* ------------------------------------------------------------------ *)
(* Net *)

let mk_net ?(n = 4) ?(config = Net.default_config) () =
  let engine = Engine.create () in
  let topology = Topology.uniform ~n ~one_way_ms:10.0 in
  let net =
    Net.create ~engine ~topology ~config ~size:String.length ~rng:(Rng.create 1L) ()
  in
  (engine, net)

let no_jitter = { Net.default_config with jitter = 0.0 }

let test_net_delivery_time () =
  let engine, net = mk_net ~config:no_jitter () in
  let arrival = ref (-1) in
  Net.set_handler net 1 (fun ~src:_ _ -> arrival := Engine.now engine);
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  (* 1 byte + 60 overhead at 2 Gbps: serialization < 1µs rounds to 1;
     one-way 10_000µs. *)
  Alcotest.(check int) "arrival = ser + latency" 10_001 !arrival

let test_net_serialization_queuing () =
  (* Two 1 MB messages back-to-back: the second waits for the first to
     clear the uplink. At 2 Gbps, 1 MB + overhead ~ 4000µs of wire time. *)
  let engine, net = mk_net ~config:no_jitter () in
  let arrivals = ref [] in
  Net.set_handler net 1 (fun ~src:_ _ -> arrivals := Engine.now engine :: !arrivals);
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  let payload = String.make 1_000_000 'x' in
  Net.send net ~src:0 ~dst:1 payload;
  Net.send net ~src:0 ~dst:1 payload;
  Engine.run engine;
  match List.rev !arrivals with
  | [ first; second ] ->
      let ser = 4_001 (* (1_000_060 * 8) / 2000 = 4000.24 -> ceil 4001 *) in
      Alcotest.(check int) "first" (ser + 10_000) first;
      Alcotest.(check int) "second queues" ((2 * ser) + 10_000) second
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_net_self_send_local () =
  let engine, net = mk_net ~config:no_jitter () in
  let arrival = ref (-1) in
  Net.set_handler net 0 (fun ~src _ ->
      Alcotest.(check int) "src" 0 src;
      arrival := Engine.now engine);
  Net.send net ~src:0 ~dst:0 "x";
  Engine.run engine;
  Alcotest.(check int) "loopback delay" no_jitter.local_delivery !arrival

let test_net_jitter_bounded () =
  let config = { Net.default_config with jitter = 0.1 } in
  let engine, net = mk_net ~config () in
  let count = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ ->
      let t = Engine.now engine in
      (* one-way 10ms ±10%, plus up to 50µs of uplink queuing *)
      Alcotest.(check bool) "within jitter" true (t >= 9_000 && t <= 11_052);
      incr count);
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  for _ = 1 to 50 do
    Net.send net ~src:0 ~dst:1 "x"
  done;
  Engine.run engine;
  Alcotest.(check int) "all arrived" 50 !count

let test_net_pre_gst_delays () =
  let config =
    { no_jitter with gst = 1_000_000; pre_gst_max_extra = 500_000 }
  in
  let engine, net = mk_net ~config () in
  let late = ref 0 and post = ref [] in
  Net.set_handler net 1 (fun ~src:_ msg ->
      if msg = "pre" && Engine.now engine > 10_001 then incr late;
      if msg = "post" then post := Engine.now engine :: !post);
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  for _ = 1 to 30 do
    Net.send net ~src:0 ~dst:1 "pre"
  done;
  Engine.run engine;
  (* After GST the adversary loses the ability to delay. *)
  Engine.schedule_at engine 2_000_000 (fun () -> Net.send net ~src:0 ~dst:1 "post");
  Engine.run engine;
  Alcotest.(check bool) "some pre-GST messages delayed" true (!late > 0);
  Alcotest.(check (list int)) "post-GST on time" [ 2_010_001 ] !post

let test_net_filter_drops () =
  let engine, net = mk_net ~config:no_jitter () in
  let got = ref 0 in
  Net.set_handler net 1 (fun ~src:_ _ -> incr got);
  Net.set_handler net 2 (fun ~src:_ _ -> incr got);
  Net.set_filter net (fun ~src:_ ~dst _ -> dst <> 1);
  Net.send net ~src:0 ~dst:1 "x";
  Net.send net ~src:0 ~dst:2 "x";
  Engine.run engine;
  Alcotest.(check int) "only unfiltered" 1 !got

let test_net_metrics () =
  let engine, net = mk_net ~config:no_jitter () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 (String.make 40 'x');
  Engine.run engine;
  Alcotest.(check int) "bytes include overhead" 100 (Net.bytes_sent net 0);
  Alcotest.(check int) "received" 100 (Net.bytes_received net 1);
  Alcotest.(check int) "messages" 1 (Net.messages_sent net 0);
  Alcotest.(check int) "total" 100 (Net.total_bytes net);
  Net.reset_metrics net;
  Alcotest.(check int) "reset" 0 (Net.total_bytes net)

let test_net_reset_metrics_full () =
  (* Regression: reset_metrics used to zero only the byte/message counters,
     leaving uplink_busy, the backlog histogram, and — worst — the
     uplink_free cursors stale, so the section measured after a reset
     started with phantom queueing delay. *)
  let engine, net = mk_net ~config:no_jitter () in
  Net.set_handler net 1 (fun ~src:_ _ -> ());
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  let payload = String.make 1_000_000 'x' in
  Net.send net ~src:0 ~dst:1 payload;
  Net.send net ~src:0 ~dst:1 payload;
  Engine.run engine;
  Net.reset_metrics net;
  let reg = Net.registry net in
  (match Metrics.find reg "uplink_busy_us_total" with
  | Some (Metrics.Counter_v v) -> Alcotest.(check int) "uplink_busy cleared" 0 v
  | _ -> Alcotest.fail "uplink_busy_us_total missing");
  (match Metrics.find reg "uplink_backlog_us" with
  | Some (Metrics.Histogram_v h) ->
      Alcotest.(check int) "backlog histogram cleared" 0
        (Clanbft.Util.Stats.Histogram.count h)
  | _ -> Alcotest.fail "uplink_backlog_us missing");
  (* A fresh message after the reset must see an idle uplink: same arrival
     time as the very first send of the run, not queued behind the
     pre-reset burst. *)
  let arrival = ref (-1) in
  Net.set_handler net 1 (fun ~src:_ _ -> arrival := Engine.now engine);
  let base = Engine.now engine in
  Net.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check int) "uplink cursor cleared" (base + 10_001) !arrival

let test_net_broadcast_split_matches_sends () =
  (* A split broadcast must be timing-equivalent to issuing one send per
     destination in id order: same filter calls, RNG draws, departure and
     arrival times, and per-destination order. Jitter and pre-GST delays
     are on, so any divergence in draw order shows up immediately. *)
  let n = 8 in
  let record sendf =
    let config =
      { Net.default_config with jitter = 0.05; gst = 1_000_000; pre_gst_max_extra = 5_000 }
    in
    let engine = Engine.create () in
    let topology = Topology.uniform ~n ~one_way_ms:10.0 in
    let net =
      Net.create ~engine ~topology ~config ~size:String.length
        ~rng:(Rng.create 42L) ()
    in
    let log = ref [] in
    for i = 0 to n - 1 do
      Net.set_handler net i (fun ~src:_ m -> log := (i, Engine.now engine, m) :: !log)
    done;
    sendf net;
    Engine.run engine;
    List.rev !log
  in
  let check name ~src member =
    let split =
      record (fun net -> Net.broadcast_split net ~src ~member "full" "digest")
    in
    let sends =
      record (fun net ->
          for dst = 0 to n - 1 do
            Net.send net ~src ~dst (if member dst then "full" else "digest")
          done)
    in
    Alcotest.(check (list (triple int int string))) name sends split
  in
  check "all members" ~src:0 (fun _ -> true);
  check "alternating, sender inside" ~src:2 (fun i -> i mod 2 = 0);
  check "alternating, sender outside" ~src:3 (fun i -> i mod 2 = 0);
  check "middle range, sender inside" ~src:4 (fun i -> i >= 3 && i <= 5);
  check "middle range, sender outside" ~src:0 (fun i -> i >= 3 && i <= 5)

let test_net_send_filter_consultation () =
  (* [send] offers its one copy to the filter; [send_unfiltered] bypasses
     it but is priced identically, so both arrive at the same instant. *)
  let arrival sendf =
    let engine, net = mk_net () in
    let calls = ref 0 and at = ref (-1) in
    Net.set_filter net (fun ~src:_ ~dst:_ _ ->
        incr calls;
        true);
    Net.set_handler net 1 (fun ~src:_ _ -> at := Engine.now engine);
    sendf net ~src:0 ~dst:1 "x";
    Engine.run engine;
    (!calls, !at)
  in
  let calls, filtered = arrival Net.send in
  Alcotest.(check int) "send consults the filter once" 1 calls;
  let calls, unfiltered = arrival Net.send_unfiltered in
  Alcotest.(check int) "send_unfiltered never consults it" 0 calls;
  Alcotest.(check int) "same arrival instant" filtered unfiltered

let test_net_split_allocation_flat () =
  (* After warm-up, a split broadcast allocates a per-call constant that
     does not grow with n, and delivering its copies allocates nothing —
     with jitter off and on (each remote copy draws its jitter). *)
  let words ~config n =
    let engine, net = mk_net ~n ~config () in
    let fired = ref 0 in
    let count ~src:_ _ = incr fired in
    for i = 0 to n - 1 do
      Net.set_handler net i count
    done;
    let split () = Net.broadcast_split net ~src:0 ~member:(fun _ -> true) "in" "out" in
    let drain () =
      while Engine.step engine do
        ()
      done
    in
    split ();
    drain ();
    let sent = minor_words split in
    Alcotest.(check int) (Printf.sprintf "delivery allocates nothing (n=%d)" n) 0
      (minor_words drain);
    Alcotest.(check int) "every copy delivered" (2 * n) !fired;
    sent
  in
  List.iter
    (fun (label, config) ->
      Alcotest.(check int) ("same words at n=10 and n=50, " ^ label) (words ~config 10)
        (words ~config 50))
    [ ("no jitter", no_jitter); ("jitter", Net.default_config) ]

let test_net_jitter_draw_allocates_nothing () =
  let rng = Rng.create 5L in
  let sink = ref 0 in
  let draws () =
    for base = 1 to 1_000 do
      sink := !sink + Net.jitter_draw Net.default_config ~rng ~base
    done
  in
  draws ();
  Alcotest.(check int) "jitter_draw allocates nothing" 0 (minor_words draws)

let test_net_jitter_symmetric () =
  (* The jitter draw must be symmetric: round-to-nearest over u uniform in
     [-1, 1). The pre-fix truncation toward zero folded the whole (-1, 1)
     µs band onto 0 and shifted every bin edge; with base * jitter = 100
     that inflated the zero bin ~2x and made +100 unreachable. The checks
     below are deterministic for the fixed seed and fail against the
     truncating implementation. *)
  let config = { Net.default_config with jitter = 0.1 } in
  let rng = Rng.create 7L in
  let base = 1_000 in
  let n = 100_000 in
  let sum = ref 0 and pos = ref 0 and neg = ref 0 and zero = ref 0 in
  let hi = ref 0 and lo = ref 0 in
  for _ = 1 to n do
    let j = Net.jitter_draw config ~rng ~base in
    sum := !sum + j;
    if j > 0 then incr pos else if j < 0 then incr neg else incr zero;
    if j > !hi then hi := j;
    if j < !lo then lo := j
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* sigma/sqrt(n) ~ 0.18µs for uniform ±100µs; 1µs is a generous 5-sigma
     band, while the truncation bug biased the zero bin, not the mean. *)
  Alcotest.(check bool) "mean centred on zero" true (Float.abs mean < 1.0);
  (* P(j = 0) = 1/200 under rounding vs 1/100 under truncation: expect
     ~500 zeros, and well under 750 (the bug gives ~1000). *)
  Alcotest.(check bool) "zero bin not inflated" true (!zero < 750);
  (* Sign balance: |pos - neg| is a +/-2 sigma binomial fluctuation. *)
  Alcotest.(check bool) "sign symmetric" true (abs (!pos - !neg) < 1_000);
  (* Both extremes reachable: truncation could never produce +100. *)
  Alcotest.(check int) "max offset" 100 !hi;
  Alcotest.(check int) "min offset" (-100) !lo;
  (* jitter = 0 consumes nothing from the stream. *)
  let r1 = Rng.create 9L and r2 = Rng.create 9L in
  let (_ : int) = Net.jitter_draw { config with jitter = 0.0 } ~rng:r1 ~base in
  Alcotest.(check int) "no draw when jitter off" (Rng.int r2 1_000_000)
    (Rng.int r1 1_000_000)

(* Settled-copy elision. Node 1 declares every message settled; the copy
   from 0 arrives at 10_001 µs (no jitter). Inside one [run] covering the
   arrival it is counted and never dispatched; a run that stops before the
   arrival must schedule it instead, so splitting the run at any point
   counts the same events. *)
let settled_net () =
  let engine, net = mk_net ~config:no_jitter () in
  let got = ref 0 in
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  Net.set_handler net 1 ~settled:(fun ~src:_ ~arrival:_ _ -> true) (fun ~src:_ _ -> incr got);
  Engine.schedule_at engine 1 (fun () -> Net.send net ~src:0 ~dst:1 "x");
  (engine, net, got)

let test_net_elide_within_horizon () =
  let engine, net, got = settled_net () in
  Engine.run ~until:20_000 engine;
  Alcotest.(check int) "processed: the send and the copy" 2 (Engine.events_processed engine);
  Alcotest.(check int) "dispatched: the send only" 1 (Engine.events_dispatched engine);
  Alcotest.(check int) "handler not called" 0 !got;
  Alcotest.(check int) "bytes charged" 61 (Net.bytes_received net 1)

let test_net_elide_split_run () =
  let engine, net, _ = settled_net () in
  Engine.run ~until:5_000 engine;
  Alcotest.(check int) "copy past the horizon stays queued" 1 (Engine.pending engine);
  Alcotest.(check int) "not counted yet" 1 (Engine.events_processed engine);
  Alcotest.(check int) "not charged yet" 0 (Net.bytes_received net 1);
  Engine.run ~until:20_000 engine;
  Alcotest.(check int) "split == single run" 2 (Engine.events_processed engine);
  Alcotest.(check int) "and it was dispatched" 2 (Engine.events_dispatched engine);
  Alcotest.(check int) "bytes charged" 61 (Net.bytes_received net 1)

let test_net_elide_outside_run () =
  (* A send outside [run] (here: before it) is never elided. *)
  let engine, net = mk_net ~config:no_jitter () in
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  Net.set_handler net 1 ~settled:(fun ~src:_ ~arrival:_ _ -> true) (fun ~src:_ _ -> ());
  Net.send net ~src:0 ~dst:1 "x";
  Engine.run engine;
  Alcotest.(check int) "dispatched" 1 (Engine.events_dispatched engine)

let test_net_elide_restart () =
  (* The handler at 1 is replaced at 6_000 µs: a copy sent at 1 µs that
     arrives at 10_001 must reach the new handler, whatever the old one
     declared. A copy arriving before the replacement is still elided. *)
  let engine, net = mk_net ~config:no_jitter () in
  let old_got = ref 0 and new_got = ref 0 in
  Net.set_handler net 0 (fun ~src:_ _ -> ());
  Net.set_handler net 1 ~settled:(fun ~src:_ ~arrival:_ _ -> true) (fun ~src:_ _ -> incr old_got);
  Net.will_replace net 1 ~at:6_000;
  Engine.schedule_at engine 6_000 (fun () ->
      Net.set_handler net 1 (fun ~src:_ _ -> incr new_got));
  Engine.schedule_at engine 1 (fun () -> Net.send net ~src:0 ~dst:1 "x");
  Engine.schedule_at engine 7_000 (fun () ->
      Net.set_handler net 1 ~settled:(fun ~src:_ ~arrival:_ _ -> true) (fun ~src:_ _ -> incr new_got);
      Net.send net ~src:0 ~dst:1 "y");
  Engine.run engine;
  Alcotest.(check int) "old handler never called" 0 !old_got;
  Alcotest.(check int) "the new replica got the first copy" 1 !new_got;
  Alcotest.(check int) "processed" 5 (Engine.events_processed engine);
  Alcotest.(check int) "the second copy was elided" 4 (Engine.events_dispatched engine)

(* [settled] is asked with each copy's true delivery time. Every node
   answers [false] and logs (src, dst, msg, arrival); every handler logs
   (src, dst, msg, now). With jitter, uplink queueing and pre-GST delays
   on, the two logs must be the same set of copies, and the delays must
   actually move arrivals: a run without them logs other times. *)
let settled_arrivals config =
  let n = 6 in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topology:(Topology.gcp_table1 ~n) ~config ~size:String.length
      ~rng:(Rng.create 5L) ()
  in
  let asked = ref [] and got = ref [] in
  for dst = 0 to n - 1 do
    Net.set_handler net dst
      ~settled:(fun ~src ~arrival msg ->
        asked := (src, dst, msg, arrival) :: !asked;
        false)
      (fun ~src msg -> got := (src, dst, msg, Engine.now engine) :: !got)
  done;
  List.iteri
    (fun k at ->
      Engine.schedule_at engine at (fun () ->
          let src = k mod n in
          let msg = Printf.sprintf "m%d%s" k (String.make (k * 40_000) 'x') in
          if k mod 3 = 2 then Net.send net ~src ~dst:((src + 1) mod n) msg
          else if k mod 3 = 1 then
            Net.broadcast_split net ~src ~member:(fun i -> i mod 2 = 0) msg (msg ^ "'")
          else Net.broadcast net ~src msg))
    [ 1; 2; 500; 90_000; 150_000; 150_001; 250_000; 400_000; 400_000 ];
  Engine.run engine;
  (List.sort compare !asked, List.sort compare !got)

let test_net_settled_sees_arrival () =
  let delayed =
    { Net.default_config with jitter = 0.05; gst = 200_000; pre_gst_max_extra = 80_000 }
  in
  let asked, got = settled_arrivals delayed in
  Alcotest.(check int) "every copy asked" 39 (List.length asked);
  Alcotest.(check (list (pair (pair int int) (pair string int))))
    "asked at each copy's delivery time"
    (List.map (fun (s, d, m, t) -> ((s, d), (m, t))) got)
    (List.map (fun (s, d, m, t) -> ((s, d), (m, t))) asked);
  let plain, _ = settled_arrivals { delayed with jitter = 0.0; pre_gst_max_extra = 0 } in
  Alcotest.(check bool) "jitter and pre-GST delay move arrivals" true (plain <> asked)

let test_net_broadcast () =
  let engine, net = mk_net ~config:no_jitter () in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.set_handler net i (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.broadcast net ~src:2 "x";
  Engine.run engine;
  Alcotest.(check (array int)) "everyone got one" [| 1; 1; 1; 1 |] got

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are reproducible" ~count:30
    QCheck.(list (pair (int_range 0 100_000) small_int))
    (fun events ->
      let run () =
        let e = Engine.create () in
        let log = ref [] in
        List.iter
          (fun (time, tag) -> Engine.schedule_at e time (fun () -> log := tag :: !log))
          events;
        Engine.run e;
        !log
      in
      run () = run ())

(* A random schedule as a forest: a root is scheduled up front at its
   absolute time; when an event runs, its handler schedules each child at
   [now + delay]. Delays mix re-entrant zero (the current instant), ties,
   near and far-past-the-horizon offsets and 1.5 s round timers. *)
type sched = Ev of int * sched list

let gen_delay =
  QCheck.Gen.frequency
    [
      (3, QCheck.Gen.return 0);
      (3, QCheck.Gen.int_range 1 8);
      (4, QCheck.Gen.int_range 1 5_000);
      (3, QCheck.Gen.int_range 5_000 400_000);
      (1, QCheck.Gen.int_range 1_400_000 1_600_000);
    ]

let gen_leaf = QCheck.Gen.map (fun d -> Ev (d, [])) gen_delay

let gen_inner =
  QCheck.Gen.(map2 (fun d kids -> Ev (d, kids)) gen_delay (list_size (int_range 0 3) gen_leaf))

let gen_schedule =
  let open QCheck.Gen in
  let root = map2 (fun t kids -> Ev (t, kids)) (int_range 0 20_000) (list_size (int_range 0 4) gen_inner) in
  (* A mid-run burst far enough past the initial horizon to grow the ring
     several times while events are running. *)
  let burst =
    map2
      (fun t kids -> Ev (t, kids))
      (int_range 1_000 2_000)
      (list_size (int_range 2_048 4_096)
         (map2 (fun d kids -> Ev (d, kids)) (int_range 1 (1 lsl 19)) (list_size (int_range 0 1) gen_leaf)))
  in
  map2 (fun roots b -> b :: roots) (list_size (int_range 1 20) root) burst

(* An engine that logs executions as (id, time), ids numbering events in
   scheduling order, and the function that schedules a [sched] tree on it. *)
let engine_driver () =
  let e = Engine.create () in
  let log = ref [] and next_id = ref 0 in
  let rec schedule time (Ev (_, kids)) =
    let id = !next_id in
    incr next_id;
    let fire (_ : int) =
      log := (id, Engine.now e) :: !log;
      List.iter (fun (Ev (d, _) as k) -> schedule (Engine.now e + d) k) kids
    in
    if id land 1 = 0 then Engine.schedule_at e time (fun () -> fire 0)
    else Engine.schedule_ix_at e time fire id
  in
  (e, schedule, log)

let engine_order roots =
  let e, schedule, log = engine_driver () in
  List.iter (fun (Ev (t, _) as r) -> schedule t r) roots;
  let h0 = Engine.horizon e in
  Engine.run e;
  (List.rev !log, h0, Engine.horizon e)

(* The reference: a priority queue over (time, scheduling sequence), which
   [run_until] drains up to a horizon, the way [Engine.run ~until] does. *)
module Model = struct
  module S = Set.Make (struct
    type t = int * int * sched

    let compare (t1, i1, _) (t2, i2, _) = compare (t1, i1) (t2, i2)
  end)

  type t = { mutable q : S.t; mutable next_id : int; mutable log : (int * int) list }

  let create () = { q = S.empty; next_id = 0; log = [] }

  let add m time ev =
    m.q <- S.add (time, m.next_id, ev) m.q;
    m.next_id <- m.next_id + 1

  let rec run_until m until =
    match S.min_elt_opt m.q with
    | Some ((time, id, Ev (_, kids)) as x) when time <= until ->
        m.q <- S.remove x m.q;
        m.log <- (id, time) :: m.log;
        List.iter (fun (Ev (d, _) as k) -> add m (time + d) k) kids;
        run_until m until
    | _ -> ()
end

let model_order roots =
  let m = Model.create () in
  List.iter (fun (Ev (t, _) as r) -> Model.add m t r) roots;
  Model.run_until m max_int;
  List.rev m.log

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine order == (time, sequence) model, across ring growth"
    ~count:25 (QCheck.make gen_schedule) (fun roots ->
      let got, h0, h1 = engine_order roots in
      if h1 < 4 * h0 then QCheck.Test.fail_reportf "ring grew only %d -> %d" h0 h1;
      got = model_order roots)

(* The same schedules, run in random [run ~until] windows with external
   schedules between them (delays relative to the window's end), then one
   far-only window: a single event several horizons out, a stop short of
   it, and an earlier event scheduled after the stop. *)
let gen_windowed =
  let open QCheck.Gen in
  let span =
    frequency [ (3, int_range 0 2_000); (3, int_range 0 50_000); (1, int_range 0 2_000_000) ]
  in
  pair gen_schedule (list_size (int_range 1 12) (pair span (list_size (int_range 0 4) gen_inner)))

let windowed_orders (roots, windows) =
  let e, schedule, log = engine_driver () in
  let m = Model.create () in
  let both time ev =
    schedule time ev;
    Model.add m time ev
  in
  let window until extras =
    Engine.run ~until e;
    Model.run_until m until;
    if Engine.now e <> until then QCheck.Test.fail_reportf "clock %d after run ~until:%d" (Engine.now e) until;
    List.iter (fun (Ev (d, _) as x) -> both (until + d) x) extras
  in
  List.iter (fun (Ev (t, _) as r) -> both t r) roots;
  List.iter (fun (span, extras) -> window (Engine.now e + span) extras) windows;
  Engine.run e;
  Model.run_until m max_int;
  let now = Engine.now e and h = Engine.horizon e in
  both (now + (3 * h) + 77) (Ev (0, []));
  window (now + h) [ Ev (5, []) ];
  Engine.run e;
  Model.run_until m max_int;
  (List.rev !log, List.rev m.log)

let prop_engine_windows_match_model =
  QCheck.Test.make ~name:"run windows: engine order == (time, sequence) model"
    ~count:25 (QCheck.make gen_windowed) (fun input ->
      let got, want = windowed_orders input in
      got = want)

let test_engine_create_small () =
  (* A fresh engine is cheap: no horizon-sized ring up front. *)
  let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
  let before = words () in
  let e = Engine.create () in
  let used = words () -. before in
  ignore (Sys.opaque_identity e);
  Alcotest.(check bool) (Printf.sprintf "create allocates %.0f < 8192 words" used) true
    (used < 8_192.)

let suites =
  [
    ("sim.time", [ Alcotest.test_case "conversions" `Quick test_time_conversions ]);
    ( "sim.engine",
      [
        Alcotest.test_case "ordering" `Quick test_engine_ordering;
        Alcotest.test_case "fifo ties" `Quick test_engine_fifo_same_time;
        Alcotest.test_case "schedule now" `Quick test_engine_schedule_now;
        Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
        Alcotest.test_case "until" `Quick test_engine_until;
        Alcotest.test_case "until empty" `Quick test_engine_until_empty_queue;
        Alcotest.test_case "far future (overflow ring)" `Quick test_engine_far_future;
        Alcotest.test_case "ring horizon boundary" `Quick test_engine_ring_horizon_boundary;
        Alcotest.test_case "overflow migration exact time" `Quick
          test_engine_overflow_migration_keeps_time;
        Alcotest.test_case "until past last event" `Quick test_engine_until_past_last_event;
        Alcotest.test_case "fifo across scheduling instants" `Quick
          test_engine_fifo_across_scheduling_instants;
        Alcotest.test_case "cascading timers" `Quick test_engine_cascading;
        Alcotest.test_case "last ring slot" `Quick test_engine_last_ring_slot;
        Alcotest.test_case "overflow same-instant fifo" `Quick
          test_engine_overflow_same_instant_fifo;
        Alcotest.test_case "mixed event kinds fifo" `Quick
          test_engine_mixed_event_kinds_fifo;
        Alcotest.test_case "step" `Quick test_engine_step;
        Alcotest.test_case "bucket edges" `Quick test_engine_bucket_edges;
        Alcotest.test_case "re-entry into the open bucket" `Quick test_engine_reentry_open_bucket;
        Alcotest.test_case "until inside a bucket" `Quick test_engine_until_inside_bucket;
        Alcotest.test_case "ring growth with a bucket open" `Quick test_engine_growth_open_bucket;
        Alcotest.test_case "until with only far events" `Quick test_engine_until_far_only;
        Alcotest.test_case "indexed events allocate nothing" `Quick
          test_engine_ix_allocates_nothing;
        Alcotest.test_case "fifo across growth, re-entry, migration" `Quick
          test_engine_fifo_across_growth_reentry_migration;
        Alcotest.test_case "create allocates little" `Quick test_engine_create_small;
        qtest prop_engine_deterministic;
        qtest prop_engine_matches_model;
        qtest prop_engine_windows_match_model;
      ] );
    ( "sim.topology",
      [
        Alcotest.test_case "gcp table1" `Quick test_topology_table1;
        Alcotest.test_case "uniform" `Quick test_topology_uniform;
        Alcotest.test_case "validation" `Quick test_topology_validation;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "delivery time" `Quick test_net_delivery_time;
        Alcotest.test_case "serialization queuing" `Quick test_net_serialization_queuing;
        Alcotest.test_case "self-send local" `Quick test_net_self_send_local;
        Alcotest.test_case "jitter bounded" `Quick test_net_jitter_bounded;
        Alcotest.test_case "pre-GST delays" `Quick test_net_pre_gst_delays;
        Alcotest.test_case "filter drops" `Quick test_net_filter_drops;
        Alcotest.test_case "metrics" `Quick test_net_metrics;
        Alcotest.test_case "reset clears uplink state" `Quick test_net_reset_metrics_full;
        Alcotest.test_case "split matches per-dst sends" `Quick
          test_net_broadcast_split_matches_sends;
        Alcotest.test_case "send filter consultation" `Quick
          test_net_send_filter_consultation;
        Alcotest.test_case "split allocation flat in n" `Quick
          test_net_split_allocation_flat;
        Alcotest.test_case "jitter symmetric" `Quick test_net_jitter_symmetric;
        Alcotest.test_case "jitter draw allocates nothing" `Quick
          test_net_jitter_draw_allocates_nothing;
        Alcotest.test_case "broadcast" `Quick test_net_broadcast;
        Alcotest.test_case "elide within horizon" `Quick test_net_elide_within_horizon;
        Alcotest.test_case "elide split run" `Quick test_net_elide_split_run;
        Alcotest.test_case "elide outside run" `Quick test_net_elide_outside_run;
        Alcotest.test_case "elide restart" `Quick test_net_elide_restart;
        Alcotest.test_case "settled sees each arrival" `Quick test_net_settled_sees_arrival;
      ] );
  ]
