(* Fault-injection harness + the pull-path liveness regressions it exists
   to pin down.

   World constants mirror test_rbc.ml: n = 10, f = 3, quorum = 7,
   clan = [|0;2;4;6;8|] (f_c = 2, clan echo quorum f_c+1 = 3, so a
   withholding sender reveals the payload to clan members 2, 4 and 6).
   The Byzantine sender is node 0, occupied by an RBC-wire Strategy
   kind ([?sender]). *)

open Clanbft
open Clanbft.Sim
open Clanbft.Crypto
module Rng = Util.Rng

let clan = [| 0; 2; 4; 6; 8 |]

let make_world ?sender ?plan protocol =
  let adversaries =
    match sender with Some kind -> [ { Strategy.node = 0; kind } ] | None -> []
  in
  Rbc_world.create ~topology:(Topology.uniform ~n:10 ~one_way_ms:10.0)
    ~config:{ Net.default_config with jitter = 0.0 } ~seed:7L ~clan ~adversaries ?plan
    protocol

let plan_exn ?(rules = []) ?(partitions = []) ?(mutes = []) () =
  match Faults.plan_of_specs ~rules ~partitions ~mutes () with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan spec: %s" e

let outcome_of w i =
  List.find_map
    (fun (_, me, _, _, o) -> if me = i then Some o else None)
    (Rbc_world.deliveries w)

(* ------------------------------------------------------------------ *)
(* Headline regression: a clan member that agrees on the digest via the
   READY path (or an echo certificate) with an EMPTY echo table must
   still be able to pull the payload. Before the fix its candidate list
   was built from echo voters only, so it stalled forever. *)

let test_pull_after_ready_only_agreement protocol () =
  (* Byzantine sender 0 reveals the payload to clan members 2, 4, 6 only
     (digests elsewhere); every ECHO addressed to clan member 8 is
     dropped, so 8 agrees purely via READYs / certificate. *)
  let plan = plan_exn ~rules:[ "drop:kind=echo:dst=8" ] () in
  let w = make_world ~sender:Withhold ~plan protocol in
  Rbc_world.broadcast w ~sender:0 ~round:1 "headline-payload";
  Engine.run ~until:(Time.s 30.) w.engine;
  (match w.injector with
  | Some i -> Alcotest.(check bool) "echoes were dropped" true (Faults.dropped i > 0)
  | None -> assert false);
  (* All nine honest nodes deliver; every honest clan member — including
     the echo-starved one — gets the full value. *)
  Alcotest.(check int) "all honest deliver" 9 (List.length (Rbc_world.deliveries w));
  List.iter
    (fun i ->
      match outcome_of w i with
      | Some (Rbc.Value v) ->
          Alcotest.(check string)
            (Printf.sprintf "clan member %d payload" i)
            "headline-payload" v
      | Some (Rbc.Digest_only _) ->
          Alcotest.failf "clan member %d only got the digest" i
      | None -> Alcotest.failf "clan member %d stalled" i)
    [ 2; 4; 6; 8 ];
  Alcotest.(check int) "single digest" 1 (Rbc_world.summary w).distinct

(* Transient loss: every pull request is dropped for the first 3 s. A
   single sweep over the candidates exhausts well before that, so only
   the cycle-with-backoff retry can complete delivery. *)
let test_pull_retries_survive_transient_loss protocol () =
  let plan =
    plan_exn ~rules:[ "drop:kind=echo:dst=8"; "drop:kind=pull_request:until=3s" ] ()
  in
  let w = make_world ~sender:Withhold ~plan protocol in
  Rbc_world.broadcast w ~sender:0 ~round:1 "retry-payload";
  Engine.run ~until:(Time.s 30.) w.engine;
  (match outcome_of w 8 with
  | Some (Rbc.Value v) -> Alcotest.(check string) "node 8 payload" "retry-payload" v
  | Some (Rbc.Digest_only _) | None ->
      Alcotest.fail "node 8 did not recover after the loss window");
  let t8 =
    List.find_map
      (fun (t, me, _, _, _) -> if me = 8 then Some t else None)
      (Rbc_world.deliveries w)
  in
  Alcotest.(check bool) "delivered after the loss window" true
    (Option.get t8 >= Time.s 3.)

(* ------------------------------------------------------------------ *)
(* Equivocation: whatever single digest the quorum certifies, every
   honest value-entitled node ends up with the matching payload. *)

let test_equivocating_sender protocol () =
  let w = make_world ~sender:Equivocate protocol in
  Rbc_world.broadcast w ~sender:0 ~round:1 "majority";
  Engine.run ~until:(Time.s 30.) w.engine;
  Alcotest.(check int) "single digest" 1 (Rbc_world.summary w).distinct;
  Alcotest.(check int) "all honest deliver" 9 (List.length (Rbc_world.deliveries w));
  let entitled =
    if Rbc.is_tribe protocol then [ 2; 4; 6; 8 ]
    else [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  List.iter
    (fun i ->
      match outcome_of w i with
      | Some (Rbc.Value v) ->
          Alcotest.(check string) (Printf.sprintf "node %d payload" i) "majority" v
      | _ -> Alcotest.failf "entitled node %d missing the agreed value" i)
    entitled;
  Alcotest.(check int) "value deliveries" (List.length entitled) (Rbc_world.summary w).values

(* A Byzantine sender ships a full (wrong) value to a non-clan node. The
   recipient must treat it as its digest: no storage, and no serving it
   to pulling clan members later. *)
let test_nonclan_never_serves_stray_val () =
  let protocol = Rbc.Tribe_bracha in
  let w = make_world ~sender:Silent protocol in
  let digest = Digest32.hash_string "real-payload" in
  (* Full value to the clan; a stray full value to non-clan node 1. *)
  Array.iter
    (fun dst ->
      if dst <> 0 then
        Net.send w.net ~src:0 ~dst
          (Rbc.Val { sender = 0; round = 1; value = "real-payload" }))
    clan;
  Net.send w.net ~src:0 ~dst:1
    (Rbc.Val { sender = 0; round = 1; value = "stray-wrong-value" });
  Array.iter
    (fun dst ->
      if dst <> 1 && not (Array.mem dst clan) then
        Net.send w.net ~src:0 ~dst (Rbc.Val_digest { sender = 0; round = 1; digest }))
    (Array.init 10 Fun.id);
  Engine.run w.engine;
  (* Node 1 delivered the *correct* digest, not the stray value. *)
  (match outcome_of w 1 with
  | Some (Rbc.Digest_only d) ->
      Alcotest.(check bool) "digest matches broadcast" true (Digest32.equal d digest)
  | Some (Rbc.Value _) -> Alcotest.fail "non-clan node delivered a full value"
  | None -> Alcotest.fail "node 1 stalled");
  (* And it must not serve pulls: a pull request to node 1 yields no
     reply message (message count stays +1 for the request itself). *)
  let before = Net.total_messages w.net in
  Net.send w.net ~src:4 ~dst:1 (Rbc.Pull_request { sender = 0; round = 1 });
  Engine.run w.engine;
  Alcotest.(check int) "no pull reply from non-clan node" (before + 1)
    (Net.total_messages w.net)

(* ------------------------------------------------------------------ *)
(* Injector mechanics on a raw net *)

type probe = Ping of int

let raw_net ?(n = 4) plan =
  let engine = Engine.create () in
  let topology = Topology.uniform ~n ~one_way_ms:5.0 in
  let net =
    Net.create ~engine ~topology ~config:{ Net.default_config with jitter = 0.0 }
      ~size:(fun _ -> 100) ~rng:(Rng.create 3L) ()
  in
  let got : (int * int * int) list ref = ref [] in
  (* (time, dst, payload) *)
  for me = 0 to n - 1 do
    Net.set_handler net me (fun ~src:_ (Ping k) ->
        got := (Engine.now engine, me, k) :: !got)
  done;
  let injector =
    Faults.install ~engine ~net ~rng:(Rng.create 5L)
      ~classify:(fun _ -> "ping")
      ~round_of:(fun (Ping k) -> Some k)
      plan
  in
  (engine, net, got, injector)

let test_drop_rule () =
  let plan = plan_exn ~rules:[ "drop:kind=ping:dst=2" ] () in
  let engine, net, got, injector = raw_net plan in
  for dst = 1 to 3 do
    Net.send net ~src:0 ~dst (Ping dst)
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "only 1 and 3 hear" [ 1; 3 ]
    (List.sort compare (List.map (fun (_, d, _) -> d) !got));
  Alcotest.(check int) "one dropped" 1 (Faults.dropped injector);
  Alcotest.(check int) "three examined" 3 (Faults.examined injector)

let test_drop_probability_and_window () =
  (* Deterministic edges: p=1.0 inside the window, pass outside it. *)
  let plan = plan_exn ~rules:[ "drop=1.0:from=10ms:until=20ms" ] () in
  let engine, net, got, _ = raw_net plan in
  List.iter
    (fun at ->
      Engine.schedule_at engine (Time.ms at) (fun () ->
          Net.send net ~src:0 ~dst:1 (Ping (int_of_float at))))
    [ 5.0; 15.0; 25.0 ];
  Engine.run engine;
  Alcotest.(check (list int)) "window dropped" [ 5; 25 ]
    (List.sort compare (List.map (fun (_, _, k) -> k) !got))

let test_round_window_rule () =
  let plan = plan_exn ~rules:[ "drop:rounds=2..3" ] () in
  let engine, net, got, _ = raw_net plan in
  List.iter (fun k -> Net.send net ~src:0 ~dst:1 (Ping k)) [ 1; 2; 3; 4 ];
  Engine.run engine;
  Alcotest.(check (list int)) "rounds 2-3 dropped" [ 1; 4 ]
    (List.sort compare (List.map (fun (_, _, k) -> k) !got))

let test_delay_rule () =
  let plan = plan_exn ~rules:[ "delay=30ms:kind=ping" ] () in
  let engine, net, got, injector = raw_net plan in
  Net.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run engine;
  (match !got with
  | [ (t, 1, 1) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "arrives after 35ms (got %d us)" t)
        true
        (t >= Time.ms 35.0)
  | _ -> Alcotest.fail "expected exactly one delayed delivery");
  Alcotest.(check int) "counted" 1 (Faults.delayed injector)

let test_duplicate_rule () =
  let plan = plan_exn ~rules:[ "dup=2" ] () in
  let engine, net, got, injector = raw_net plan in
  Net.send net ~src:0 ~dst:1 (Ping 9);
  Engine.run engine;
  Alcotest.(check int) "three copies arrive" 3 (List.length !got);
  Alcotest.(check int) "two duplicates made" 2 (Faults.duplicated injector)

let test_partition_buffers_until_heal () =
  let plan = plan_exn ~partitions:[ "0,1|2,3:until=50ms" ] () in
  let engine, net, got, injector = raw_net plan in
  Net.send net ~src:0 ~dst:1 (Ping 1);
  (* same side: passes *)
  Net.send net ~src:0 ~dst:2 (Ping 2);
  (* severed: buffered until heal *)
  Engine.run engine;
  Alcotest.(check int) "both eventually arrive" 2 (List.length !got);
  let t2 =
    List.find_map (fun (t, d, _) -> if d = 2 then Some t else None) !got
  in
  Alcotest.(check bool) "cross-group copy held until heal" true
    (Option.get t2 >= Time.ms 50.0);
  let t1 =
    List.find_map (fun (t, d, _) -> if d = 1 then Some t else None) !got
  in
  Alcotest.(check bool) "same-group copy on time" true (Option.get t1 < Time.ms 10.0);
  Alcotest.(check int) "buffered copy counted as delayed" 1 (Faults.delayed injector)

let test_permanent_partition_drops () =
  let plan = plan_exn ~partitions:[ "0,1|2,3" ] () in
  let engine, net, got, injector = raw_net plan in
  Net.send net ~src:0 ~dst:2 (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "never arrives" 0 (List.length !got);
  Alcotest.(check int) "dropped" 1 (Faults.dropped injector)

let test_mute_after_time () =
  let plan = plan_exn ~mutes:[ "1:time=10ms" ] () in
  let engine, net, got, _ = raw_net plan in
  Net.send net ~src:1 ~dst:2 (Ping 1);
  Engine.schedule_at engine (Time.ms 20.0) (fun () ->
      Net.send net ~src:1 ~dst:2 (Ping 2));
  Engine.run engine;
  Alcotest.(check (list int)) "only the early message lands" [ 1 ]
    (List.map (fun (_, _, k) -> k) !got)

let test_mute_after_round () =
  let plan = plan_exn ~mutes:[ "1:round=5" ] () in
  let engine, net, got, _ = raw_net plan in
  List.iter (fun k -> Net.send net ~src:1 ~dst:2 (Ping k)) [ 4; 5; 6 ];
  Engine.run engine;
  Alcotest.(check (list int)) "rounds >= 5 muted" [ 4 ]
    (List.map (fun (_, _, k) -> k) !got)

(* ------------------------------------------------------------------ *)
(* DSL parsing *)

let test_dsl_parses () =
  let ok s =
    match Faults.rule_of_string s with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "%S should parse: %s" s e
  in
  List.iter ok
    [
      "drop";
      "drop=0.25:kind=echo,val:src=!0:dst=1,2:from=1s:until=3s";
      "delay=10ms..80ms";
      "dup=3:rounds=2..8";
      "drop:rounds=5..";
    ];
  let err s =
    match Faults.rule_of_string s with
    | Ok _ -> Alcotest.failf "%S should be rejected" s
    | Error _ -> ()
  in
  List.iter err [ ""; "explode"; "drop=x"; "drop:kind"; "delay=80ms..10ms" ];
  (match Faults.partition_of_string "0,1,2|3,4:until=2s" with
  | Ok p ->
      Alcotest.(check int) "heal" (Time.s 2.) p.Faults.heal_at;
      Alcotest.(check int) "groups" 2 (List.length p.Faults.groups)
  | Error e -> Alcotest.failf "partition should parse: %s" e);
  (match Faults.partition_of_string "0,1,2" with
  | Ok _ -> Alcotest.fail "single group should be rejected"
  | Error _ -> ());
  match Faults.mute_of_string "3:round=10" with
  | Ok m ->
      Alcotest.(check int) "node" 3 m.Faults.node;
      Alcotest.(check int) "round" 10 m.Faults.after_round
  | Error e -> Alcotest.failf "mute should parse: %s" e

(* ------------------------------------------------------------------ *)
(* Determinism: an adversarial run replays byte-identically. *)

let test_adversarial_replay_deterministic () =
  let run () =
    let plan =
      plan_exn
        ~rules:[ "drop=0.3:kind=echo"; "delay=5ms..25ms:kind=pull_request" ]
        ~partitions:[ "1,3|5,7:until=100ms" ] ()
    in
    let w = make_world ~sender:Withhold ~plan Rbc.Tribe_bracha in
    Rbc_world.broadcast w ~sender:0 ~round:1 "replay";
    Engine.run ~until:(Time.s 30.) w.engine;
    ( List.sort compare
        (List.map
           (fun (t, me, _, _, o) ->
             ( t,
               me,
               match o with
               | Rbc.Value v -> "v:" ^ v
               | Rbc.Digest_only d -> "d:" ^ Digest32.to_raw d ))
           (Rbc_world.deliveries w)),
      Net.total_bytes w.net,
      Net.total_messages w.net )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical traces" true (a = b)

(* ------------------------------------------------------------------ *)
(* Runner integration: full SMR under partition + loss still agrees and
   commits once the scenario heals. *)

(* n = 10 on 10 ms uniform links, 100 transactions per proposal. *)
let fault_spec ?(protocol = Runner.Full) ?(duration = 6.) ?(warmup = 3.) ?(load = 100) plan =
  {
    Runner.default_spec with
    n = 10;
    protocol;
    duration = Time.s duration;
    warmup = Time.s warmup;
    txns_per_proposal = load;
    topology = `Uniform 10.0;
    fault_plan = plan;
  }

let test_runner_with_fault_plan () =
  let plan =
    plan_exn
      ~rules:[ "drop=0.2:kind=val:until=3s" ]
      ~partitions:[ "0,1,2,3,4|5,6,7,8,9:until=1s" ] ()
  in
  let r = Runner.run (fault_spec plan) in
  Alcotest.(check bool) "agreement holds" true r.agreement;
  Alcotest.(check bool) "commits after healing" true (r.committed_txns > 0)

(* Sparse edges keep agreement under the same fault DSL: the leader of a
   few rounds is muted and a partition splits the network for a second.
   Sparse vertices carry O(k) parents, so this also checks the coverage
   rule (leader + link + sampled edges) holds up when the picked parents
   are the ones being disrupted. *)
let test_runner_sparse_with_fault_plan () =
  let plan =
    plan_exn
      ~mutes:[ "1:round=5" ]
      ~partitions:[ "0,1,2,3,4|5,6,7,8,9:until=1s" ] ()
  in
  let r = Runner.run (fault_spec ~protocol:(Runner.Sparse { k = 3 }) plan) in
  Alcotest.(check bool) "agreement holds" true r.agreement;
  Alcotest.(check bool) "commits after healing" true (r.committed_txns > 0)

(* A mid-run partition leaves the faulted sparse run event-identical to the
   benign one until the split fires, so every commit made before [from=]
   must land in both chained-hash vectors: a non-trivial common prefix. *)
let test_runner_sparse_fault_commit_prefix () =
  let spec = fault_spec ~protocol:(Runner.Sparse { k = 3 }) ~duration:8. ~warmup:2. in
  let benign = Runner.run (spec Faults.empty) in
  let faulted =
    Runner.run
      (spec (plan_exn ~partitions:[ "0,1,2,3,4|5,6,7,8,9:from=4s:until=5s" ] ()))
  in
  Alcotest.(check bool) "benign agrees" true benign.agreement;
  Alcotest.(check bool) "faulted agrees" true faulted.agreement;
  let a = benign.commit_chain and b = faulted.commit_chain in
  let k = min (Array.length a) (Array.length b) in
  let common = ref 0 in
  (try
     for i = 0 to k - 1 do
       if a.(i) = b.(i) then incr common else raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "common commit prefix (%d of %d/%d)" !common
       (Array.length a) (Array.length b))
    true (!common > 0)

(* Installing an empty-plan injector is the caller's job to avoid; the
   Runner skips it entirely, so benign specs consume no extra RNG draws
   and produce bit-identical results with and without the faults field. *)
let test_empty_plan_is_free () =
  let run plan =
    let r = Runner.run (fault_spec ~duration:4. ~warmup:1. ~load:50 plan) in
    (r.committed_txns, r.rounds, r.bytes_total)
  in
  Alcotest.(check bool) "benign runs identical" true
    (run Faults.empty = run (plan_exn ()))

(* ------------------------------------------------------------------ *)
(* Sender role assignment: the value-entitled counter is scoped to one
   opening, so a second instance hands the same recipients the same roles
   — and non-tribe Withhold stiffs outright, with no digest fallback
   (honest non-tribe nodes ignore digest-only VALs anyway). *)

(* A world whose node 0 is occupied by [sender], with every copy node 0
   sends recorded as [(dst, msg)]. *)
let tap_world sender protocol =
  let w = make_world ~sender protocol in
  let sends = ref [] in
  Net.set_filter w.net (fun ~src ~dst msg ->
      if src = 0 then sends := (dst, msg) :: !sends;
      true);
  (w, sends)

let test_adversary_roles_replay () =
  let w, sends = tap_world Equivocate Rbc.Tribe_bracha in
  Rbc_world.broadcast w ~sender:0 ~round:1 "real";
  Rbc_world.broadcast w ~sender:0 ~round:2 "real";
  Engine.run ~until:(Time.s 1.) w.engine;
  let decoy_dsts round =
    List.filter_map
      (fun (dst, m) ->
        match m with
        | Rbc.Val { round = r; value; _ } when r = round && value <> "real" -> Some dst
        | _ -> None)
      !sends
    |> List.sort compare
  in
  (* Entitled order is clan id order minus the sender: 2, 4, 6, 8, and
     only the first gets the decoy. A counter leaking across openings
     would hand round 2's decoy to nobody (or to a later clan member). *)
  Alcotest.(check (list int)) "round 1 decoy" [ 2 ] (decoy_dsts 1);
  Alcotest.(check (list int)) "round 2 decoy identical" [ 2 ] (decoy_dsts 2)

let test_withhold_stiffs_non_tribe () =
  let w, sends = tap_world Withhold Rbc.Signed_two_round in
  Rbc_world.broadcast w ~sender:0 ~round:1 "v";
  Engine.run ~until:(Time.s 1.) w.engine;
  let vals =
    List.filter_map
      (fun (dst, m) -> match m with Rbc.Val _ -> Some dst | _ -> None)
      !sends
    |> List.sort compare
  in
  let digests =
    List.filter
      (fun (_, m) -> match m with Rbc.Val_digest _ -> true | _ -> false)
      !sends
  in
  Alcotest.(check (list int)) "first f_c+1 ids get the value" [ 1; 2; 3 ] vals;
  Alcotest.(check int) "no digest fallback outside the tribe" 0
    (List.length digests);
  Alcotest.(check int) "stiffed parties get nothing at all" 3
    (List.length !sends)

let protocol_cases mk =
  List.map
    (fun (name, p) -> Alcotest.test_case name `Quick (mk p))
    [
      ("bracha", Rbc.Bracha);
      ("signed-2round", Rbc.Signed_two_round);
      ("tribe-bracha", Rbc.Tribe_bracha);
      ("tribe-signed", Rbc.Tribe_signed);
    ]

let tribe_cases mk =
  List.map
    (fun (name, p) -> Alcotest.test_case name `Quick (mk p))
    [ ("tribe-bracha", Rbc.Tribe_bracha); ("tribe-signed", Rbc.Tribe_signed) ]

let suites =
  [
    ( "faults.pull-liveness",
      tribe_cases test_pull_after_ready_only_agreement
      @ tribe_cases test_pull_retries_survive_transient_loss
      @ [
          Alcotest.test_case "non-clan never serves stray VAL" `Quick
            test_nonclan_never_serves_stray_val;
        ] );
    ("faults.equivocation", protocol_cases test_equivocating_sender);
    ( "faults.adversary-roles",
      [
        Alcotest.test_case "roles replay across invocations" `Quick
          test_adversary_roles_replay;
        Alcotest.test_case "non-tribe withhold stiffs outright" `Quick
          test_withhold_stiffs_non_tribe;
      ] );
    ( "faults.injector",
      [
        Alcotest.test_case "drop by kind+dst" `Quick test_drop_rule;
        Alcotest.test_case "drop time window" `Quick test_drop_probability_and_window;
        Alcotest.test_case "drop round window" `Quick test_round_window_rule;
        Alcotest.test_case "delay" `Quick test_delay_rule;
        Alcotest.test_case "duplicate" `Quick test_duplicate_rule;
        Alcotest.test_case "partition buffers until heal" `Quick
          test_partition_buffers_until_heal;
        Alcotest.test_case "permanent partition drops" `Quick
          test_permanent_partition_drops;
        Alcotest.test_case "mute after time" `Quick test_mute_after_time;
        Alcotest.test_case "mute after round" `Quick test_mute_after_round;
        Alcotest.test_case "DSL parsing" `Quick test_dsl_parses;
      ] );
    ( "faults.determinism",
      [
        Alcotest.test_case "adversarial replay identical" `Quick
          test_adversarial_replay_deterministic;
        Alcotest.test_case "empty plan is free" `Quick test_empty_plan_is_free;
      ] );
    ( "faults.runner",
      [
        Alcotest.test_case "partition + loss: agree and commit" `Quick
          test_runner_with_fault_plan;
        Alcotest.test_case "sparse: muted leader + partition" `Slow
          test_runner_sparse_with_fault_plan;
        Alcotest.test_case "sparse: faulted chain is a prefix" `Slow
          test_runner_sparse_fault_commit_prefix;
      ] );
  ]
