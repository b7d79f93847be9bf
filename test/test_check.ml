(* Schedule-exploration checker (docs/CHECKING.md): engine delivery-choice
   points, schedule persistence, exhaustive and random-walk exploration,
   counterexample minimization and deterministic replay. *)

open Clanbft
open Clanbft.Sim
module S = Check.Schedule
module H = Check.Harness
module E = Check.Explore

(* Adversary specs in the [--adversary] grammar. *)
let advs specs =
  match Strategy.of_specs specs with
  | Ok l -> l
  | Error e -> Alcotest.failf "%s" e

let split = advs [ "0@split" ]
let collude = advs [ "0@split"; "1@collude" ]

(* ------------------------------------------------------------------ *)
(* Engine: delivery-choice points *)

let test_choice_pooling () =
  let engine = Engine.create () in
  Engine.set_choice_mode engine true;
  let fired = ref [] in
  Engine.schedule_choice_at engine 5 ~src:0 ~dst:1 ~tag:"a" (fun () -> fired := 5 :: !fired);
  Engine.schedule_choice_at engine 9 ~src:1 ~dst:0 ~tag:"b" (fun () -> fired := 9 :: !fired);
  Alcotest.(check int) "both parked" 2 (Engine.choice_count engine);
  Engine.run engine;
  Alcotest.(check (list int)) "run fires nothing pooled" [] !fired;
  let ids = List.map (fun c -> c.Engine.id) (Engine.choices engine) in
  Alcotest.(check (list int)) "stable creation-order ids" [ 0; 1 ] ids;
  Engine.fire_choice engine 1;
  Engine.fire_choice engine 0;
  Alcotest.(check (list int)) "fired in chosen order" [ 5; 9 ] !fired;
  Alcotest.(check int) "pool drained" 0 (Engine.choice_count engine)

let test_choice_unknown_id () =
  let engine = Engine.create () in
  Engine.set_choice_mode engine true;
  Engine.schedule_choice_at engine 1 ~src:0 ~dst:1 ~tag:"a" (fun () -> ());
  Engine.fire_choice engine 0;
  Alcotest.check_raises "double fire"
    (Invalid_argument "Engine.fire_choice: unknown or already-fired choice")
    (fun () -> Engine.fire_choice engine 0)

let test_choice_mode_off_is_calendar () =
  (* With choice mode off, the choice entry points must behave exactly
     like plain scheduling: same firing order, nothing pooled. *)
  let engine = Engine.create () in
  let order = ref [] in
  Engine.schedule_choice_at engine 7 ~src:0 ~dst:1 ~tag:"b" (fun () -> order := "b" :: !order);
  Engine.schedule_at engine 3 (fun () -> order := "a" :: !order);
  Engine.run engine;
  Alcotest.(check (list string)) "calendar order" [ "a"; "b" ] (List.rev !order);
  Alcotest.(check int) "nothing pooled" 0 (Engine.choice_count engine)

let test_small_ring_equivalence () =
  (* A fresh (small) ring must produce the same execution as one that
     traffic has grown: events past the small horizon overflow to the heap
     but fire at the same times. *)
  let run ~grown =
    let engine = if grown then Test_sim.grown_engine () else Engine.create () in
    if grown then
      Alcotest.(check bool) "grown ring covers 100 ms" true (Engine.horizon engine > 100_000);
    let base = Engine.now engine in
    let log = ref [] in
    let ev t =
      Engine.schedule_at engine (base + t) (fun () -> log := (t, Engine.now engine - base) :: !log)
    in
    List.iter ev [ 10; 100_000; 3; 5_000_000; 42 ];
    Engine.run engine;
    List.rev !log
  in
  Alcotest.(check (list (pair int int)))
    "small ring == grown ring" (run ~grown:false) (run ~grown:true)

(* ------------------------------------------------------------------ *)
(* Schedule files *)

let test_schedule_round_trip () =
  let path = Filename.temp_file "clanbft_sched" ".txt" in
  let actions = [ S.Deliver 3; S.Step; S.Crash 2; S.Deliver 0; S.Recover 2 ] in
  let meta = [ ("model", "rbc-tribe-bracha"); ("n", "4") ] in
  S.save ~path ~meta ~notes:[ "val 0->1"; ""; ""; "echo 1->2"; "" ] actions;
  (match S.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (meta', actions') ->
      Alcotest.(check (list (pair string string))) "meta" meta meta';
      Alcotest.(check bool) "actions" true (actions = actions'));
  Sys.remove path

let test_schedule_bad_line () =
  let path = Filename.temp_file "clanbft_sched" ".txt" in
  let oc = open_out path in
  output_string oc "# clanbft/check-schedule/v1\ndeliver twelve\n";
  close_out oc;
  (match S.load path with
  | Ok _ -> Alcotest.fail "corrupt schedule accepted"
  | Error _ -> ());
  Sys.remove path

let test_spec_meta_round_trip () =
  let spec =
    { H.default_spec with H.adversary = collude; late_join = true; crashes = 2 }
  in
  match H.spec_of_meta (H.spec_meta spec) with
  | Error e -> Alcotest.failf "spec_of_meta: %s" e
  | Ok spec' -> Alcotest.(check bool) "spec round-trips" true (spec = spec')

(* ------------------------------------------------------------------ *)
(* Exploration *)

let spec_rbc p rounds adversary =
  { H.default_spec with H.model = H.Rbc p; rounds; adversary }

let test_exhaustive_honest () =
  (* One round, both tribe families: every reordering within the budget
     must satisfy agreement, validity, no-equivocation and totality. *)
  List.iter
    (fun p ->
      let r = E.exhaustive (spec_rbc p 1 []) in
      Alcotest.(check bool) "no violation" true (r.E.violation = None);
      Alcotest.(check bool) "explored >1 run" true (r.E.stats.E.runs > 1);
      Alcotest.(check int) "no truncation" 0 r.E.stats.E.truncated)
    [ Rbc.Tribe_bracha; Rbc.Tribe_signed ]

let test_exhaustive_equivocate_safe () =
  (* f=1 equivocating sender: within the fault model, so every schedule
     must still be safe. *)
  let r = E.exhaustive (spec_rbc Rbc.Tribe_signed 1 split) in
  Alcotest.(check bool) "no violation" true (r.E.violation = None)

let test_exhaustive_collude_violates () =
  (* Two byz nodes against f=1: outside the fault model, the checker
     must find an agreement violation and minimize it. *)
  let spec = spec_rbc Rbc.Tribe_bracha 1 collude in
  let r = E.exhaustive spec in
  (match r.E.violation with
  | None -> Alcotest.fail "collude schedule not found"
  | Some v -> Alcotest.(check string) "invariant" "agreement" v.H.invariant);
  let small = E.minimize spec r.E.schedule in
  Alcotest.(check bool) "minimized is no longer" true
    (List.length small <= List.length r.E.schedule);
  (* The minimized schedule must still reproduce the same invariant. *)
  let run = E.run_schedule spec small in
  (match run.E.run_violation with
  | None -> Alcotest.fail "minimized schedule lost the violation"
  | Some v -> Alcotest.(check string) "same invariant" "agreement" v.H.invariant)

let test_withhold_sender p () =
  (* n=7: the harness clan is {0..3}, so a withholding sender 0 reveals
     the value to f_c+1 = 2 members (1 and 2) and stiffs member 3, which
     must pull it. At n=4 the reveal would cover the whole clan. *)
  let spec = { (spec_rbc p 1 (advs [ "0@withhold" ])) with H.n = 7 } in
  let run = E.run_schedule spec [] in
  Alcotest.(check bool) "canonical run safe" true (run.E.run_violation = None);
  Alcotest.(check string) "every honest node delivers" "deliveries=6"
    (List.hd (String.split_on_char ' ' (H.state_line run.E.world)));
  let r = E.walks ~seed:42L ~count:2500 spec in
  Alcotest.(check bool) "no violation in 2500 walks" true (r.E.violation = None)

let test_replay_identical () =
  (* Two independent replays of one schedule end in identical states and
     execute identical action sequences. *)
  let spec = spec_rbc Rbc.Tribe_signed 1 collude in
  let r = E.exhaustive spec in
  let sched = E.minimize spec r.E.schedule in
  let a = E.run_schedule spec sched and b = E.run_schedule spec sched in
  Alcotest.(check bool) "same executed" true (a.E.executed = b.E.executed);
  Alcotest.(check string) "same state"
    (H.state_line a.E.world) (H.state_line b.E.world);
  Alcotest.(check bool) "same notes" true (a.E.notes = b.E.notes)

let test_walks_deterministic () =
  let spec = spec_rbc Rbc.Tribe_bracha 1 [] in
  let a = E.walks ~seed:42L ~count:20 spec in
  let b = E.walks ~seed:42L ~count:20 spec in
  Alcotest.(check bool) "no violation" true (a.E.violation = None);
  Alcotest.(check int) "same transitions" a.E.stats.E.transitions b.E.stats.E.transitions;
  Alcotest.(check int) "same depth" a.E.stats.E.max_depth b.E.stats.E.max_depth

let test_late_join_totality () =
  (* Canonical run with the late-join hook: node n-1 loses its queued
     traffic, rejoins via request_sync, and totality must still hold. *)
  let spec = { (spec_rbc Rbc.Tribe_signed 1 []) with H.late_join = true } in
  let run = E.run_schedule spec [] in
  Alcotest.(check bool) "no error" true (run.E.error = None);
  Alcotest.(check bool) "no violation" true (run.E.run_violation = None)

let test_crash_budget () =
  let spec = { (spec_rbc Rbc.Tribe_bracha 1 []) with H.crashes = 1 } in
  let r = E.exhaustive spec in
  Alcotest.(check bool) "no violation" true (r.E.violation = None)

let test_sailfish_walks () =
  let spec = { H.default_spec with H.model = H.Sailfish; rounds = 4 } in
  let r = E.walks ~max_actions:250 ~seed:7L ~count:5 spec in
  Alcotest.(check bool) "no violation" true (r.E.violation = None);
  (* Sailfish generates rounds forever; every walk hits the depth cap. *)
  Alcotest.(check int) "all truncated" 5 r.E.stats.E.truncated

let test_sailfish_sparse_walks () =
  (* Same walk harness over sparse edges: vertices carry the sampled-parent
     set instead of all 2f+1, and the commit invariants must hold anyway. *)
  let spec =
    { H.default_spec with H.model = H.Sailfish; rounds = 4; sparse_k = Some 2 }
  in
  let r = E.walks ~max_actions:250 ~seed:7L ~count:5 spec in
  Alcotest.(check bool) "no violation" true (r.E.violation = None);
  Alcotest.(check int) "all truncated" 5 r.E.stats.E.truncated

let test_sparse_spec_meta_round_trip () =
  let spec =
    { H.default_spec with H.model = H.Sailfish; rounds = 3; sparse_k = Some 3 }
  in
  match H.spec_of_meta (H.spec_meta spec) with
  | Error e -> Alcotest.failf "spec_of_meta: %s" e
  | Ok spec' -> Alcotest.(check bool) "sparse spec round-trips" true (spec = spec')

(* Sailfish world under one of the runner's strategies, in the
   [sim --adversary] grammar. *)
let spec_strategy rounds adv =
  { H.default_spec with H.model = H.Sailfish; rounds; adversary = advs [ adv ] }

let test_strategy_exhaustive adv () =
  (* The strategies are inside the fault model: every interleaving of the
     held or rewritten traffic against the timeout machinery (within the
     budget) must keep the commit invariants. *)
  let spec = spec_strategy 3 adv in
  let r = E.exhaustive ~delay_budget:1 ~window:2 ~max_actions:120 spec in
  Alcotest.(check bool) "no violation" true (r.E.violation = None);
  Alcotest.(check bool) "explored >1 run" true (r.E.stats.E.runs > 1);
  (* And the canonical run still commits: griefed leaders are slow and a
     censored or reordered node's slots late, never lost, so liveness
     survives the attack. *)
  let run = E.run_schedule ~max_actions:400 spec [] in
  Alcotest.(check bool) "no violation on canonical run" true
    (run.E.run_violation = None);
  let commits =
    try Scanf.sscanf (H.state_line run.E.world) "commits=%d" Fun.id
    with Scanf.Scan_failure _ | Failure _ -> -1
  in
  Alcotest.(check bool)
    (Printf.sprintf "canonical %s run commits (got %d)" adv commits)
    true (commits > 0)

let test_strategy_walks adv () =
  let r = E.walks ~max_actions:150 ~seed:29L ~count:2500 (spec_strategy 4 adv) in
  Alcotest.(check bool) "no violation in 2500 walks" true (r.E.violation = None)

let test_strategy_spec_meta_round_trip advs () =
  List.iter
    (fun adv ->
      let spec = spec_strategy 3 adv in
      match H.spec_of_meta (H.spec_meta spec) with
      | Error e -> Alcotest.failf "spec_of_meta: %s" e
      | Ok spec' ->
          Alcotest.(check bool) (adv ^ " spec round-trips") true (spec = spec'))
    advs

let test_bad_meta_is_error () =
  (* Schedule files are outside input: a malformed value is an [Error],
     never an exception. *)
  List.iter
    (fun (key, v) ->
      match H.spec_of_meta [ (key, v) ] with
      | Ok _ -> Alcotest.failf "%s=%s accepted" key v
      | Error _ -> ())
    [
      ("adversary", "3@bogus");
      ("adversary", "3@censor:xx");
      ("adversary", "0@reorder:");
      ("adversary", "grief");
      ("n", "four");
    ]

let test_validate () =
  let bad =
    [
      { H.default_spec with H.n = 3 };
      { H.default_spec with H.rounds = 0 };
      { H.default_spec with H.model = H.Sailfish; late_join = true };
      { (spec_strategy 2 "0@grief:0.9") with H.model = H.Rbc Rbc.Bracha };
      spec_strategy 2 "4@grief:0.9";
      spec_strategy 2 "0@censor:0";
      { H.default_spec with H.model = H.Sailfish; adversary = collude };
      spec_rbc Rbc.Tribe_bracha 1 (advs [ "0@split"; "0@collude" ]);
      (* sender kinds away from the RBC sender, node 0, would never act *)
      spec_rbc Rbc.Tribe_bracha 1 (advs [ "3@withhold" ]);
      spec_rbc Rbc.Tribe_signed 1 (advs [ "1@split" ]);
      spec_rbc Rbc.Bracha 1 (advs [ "2@equivocate" ]);
    ]
  in
  List.iter
    (fun spec ->
      Alcotest.(check bool) "rejected" true (Result.is_error (H.validate spec));
      match H.build spec with
      | _ -> Alcotest.fail "build accepted an invalid spec"
      | exception Invalid_argument _ -> ())
    bad;
  Alcotest.(check bool) "grief accepted" true
    (H.validate (spec_strategy 2 "0@grief:0.9") = Ok ())

let test_strategy_trace_names_attack () =
  (* A traced strategy world carries the strategy's Fault_fire records
     (rule -2), which is what lets [analyze] attribute the stall. *)
  let run =
    E.run_schedule ~trace:true ~max_actions:120 (spec_strategy 3 "0@grief:0.9") []
  in
  match H.obs run.E.world with
  | None -> Alcotest.fail "traced world has no obs"
  | Some o ->
      let fires = ref 0 in
      Trace.iter o.Obs.trace (fun r ->
          match r.Trace.ev with
          | Trace.Fault_fire { rule = -2; action = "grief"; _ } -> incr fires
          | _ -> ());
      Alcotest.(check bool) "grief fault_fire records" true (!fires > 0)

let test_dpor_prunes () =
  (* Sleep sets must only remove redundant interleavings: same verdict,
     strictly fewer transitions than the unpruned search. *)
  let spec = spec_rbc Rbc.Tribe_bracha 1 [] in
  let on = E.exhaustive ~dpor:true spec in
  let off = E.exhaustive ~dpor:false spec in
  Alcotest.(check bool) "same verdict" true
    ((on.E.violation = None) = (off.E.violation = None));
  Alcotest.(check bool) "dpor explores strictly less" true
    (on.E.stats.E.transitions < off.E.stats.E.transitions)

let suites =
  [
    ( "check.engine",
      [
        Alcotest.test_case "choice pooling + fire order" `Quick test_choice_pooling;
        Alcotest.test_case "unknown choice id raises" `Quick test_choice_unknown_id;
        Alcotest.test_case "choice mode off == calendar" `Quick test_choice_mode_off_is_calendar;
        Alcotest.test_case "small ring == grown ring" `Quick test_small_ring_equivalence;
      ] );
    ( "check.schedule",
      [
        Alcotest.test_case "save/load round-trip" `Quick test_schedule_round_trip;
        Alcotest.test_case "corrupt line rejected" `Quick test_schedule_bad_line;
        Alcotest.test_case "spec meta round-trip" `Quick test_spec_meta_round_trip;
        Alcotest.test_case "sparse spec meta round-trip" `Quick
          test_sparse_spec_meta_round_trip;
      ] );
    ( "check.explore",
      [
        Alcotest.test_case "exhaustive honest is safe" `Quick test_exhaustive_honest;
        Alcotest.test_case "equivocating sender stays safe" `Quick test_exhaustive_equivocate_safe;
        Alcotest.test_case "collusion found + minimized" `Quick test_exhaustive_collude_violates;
        Alcotest.test_case "replay is deterministic" `Quick test_replay_identical;
        Alcotest.test_case "walks are seed-deterministic" `Quick test_walks_deterministic;
        Alcotest.test_case "late join keeps totality" `Quick test_late_join_totality;
        Alcotest.test_case "crash/recover schedules safe" `Quick test_crash_budget;
        Alcotest.test_case "sailfish walks stay consistent" `Quick test_sailfish_walks;
        Alcotest.test_case "sparse sailfish walks stay consistent" `Quick
          test_sailfish_sparse_walks;
        Alcotest.test_case "grief schedules keep invariants" `Quick
          (test_strategy_exhaustive "0@grief:0.9");
        Alcotest.test_case "grief survives 2500 walks" `Slow
          (test_strategy_walks "0@grief:0.9");
        Alcotest.test_case "grief spec meta round-trip" `Quick
          (test_strategy_spec_meta_round_trip [ "0@grief:0.9" ]);
        Alcotest.test_case "sleep sets prune soundly" `Quick test_dpor_prunes;
        Alcotest.test_case "censor schedules keep invariants" `Quick
          (test_strategy_exhaustive "0@censor:1");
        Alcotest.test_case "reorder schedules keep invariants" `Quick
          (test_strategy_exhaustive "0@reorder:2ms");
        Alcotest.test_case "censor survives 2500 walks" `Slow
          (test_strategy_walks "0@censor:1");
        Alcotest.test_case "reorder survives 2500 walks" `Slow
          (test_strategy_walks "0@reorder:2ms");
        Alcotest.test_case "strategy spec meta round-trip" `Quick
          (test_strategy_spec_meta_round_trip
             [ "0@censor:1"; "0@reorder:2ms"; "2@storm:8"; "1@equivocate" ]);
        Alcotest.test_case "malformed meta is an Error" `Quick
          test_bad_meta_is_error;
        Alcotest.test_case "validate rejects bad specs" `Quick test_validate;
        Alcotest.test_case "traced grief names the attack" `Quick
          test_strategy_trace_names_attack;
        Alcotest.test_case "tribe-bracha withholder" `Quick
          (test_withhold_sender Rbc.Tribe_bracha);
        Alcotest.test_case "tribe-signed withholder" `Quick
          (test_withhold_sender Rbc.Tribe_signed);
      ] );
  ]
