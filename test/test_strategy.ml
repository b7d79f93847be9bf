open Clanbft
open Clanbft.Sim

(* ------------------------------------------------------------------ *)
(* Strategic adversary engine (lib/faults/strategy.ml): DSL parsing,
   per-attack safety/liveness, trace attribution, determinism. *)

let spec_t =
  Alcotest.testable
    (fun ppf (s : Strategy.spec) ->
      Format.pp_print_string ppf (Strategy.to_string s))
    ( = )

let parse s = Strategy.of_string s

let test_parser () =
  Alcotest.(check (result spec_t string))
    "equivocate"
    (Ok { Strategy.node = 3; kind = Strategy.Equivocate })
    (parse "3@equivocate");
  Alcotest.(check (result spec_t string))
    "censor" (Ok { Strategy.node = 1; kind = Strategy.Censor 5 })
    (parse "1@censor:5");
  Alcotest.(check (result spec_t string))
    "grief default"
    (Ok { Strategy.node = 2; kind = Strategy.Grief 0.8 })
    (parse "2@grief");
  Alcotest.(check (result spec_t string))
    "grief frac"
    (Ok { Strategy.node = 2; kind = Strategy.Grief 0.5 })
    (parse "2@grief:0.5");
  Alcotest.(check (result spec_t string))
    "storm default"
    (Ok { Strategy.node = 0; kind = Strategy.Sync_storm 32 })
    (parse "0@storm");
  Alcotest.(check (result spec_t string))
    "storm alias"
    (Ok { Strategy.node = 0; kind = Strategy.Sync_storm 8 })
    (parse "0@sync-storm:8");
  Alcotest.(check (result spec_t string))
    "reorder time grammar"
    (Ok { Strategy.node = 4; kind = Strategy.Reorder (Time.ms 3.) })
    (parse "4@reorder:3ms");
  (* Round-trips: to_string renders back into parseable DSL. *)
  List.iter
    (fun s ->
      match parse s with
      | Error e -> Alcotest.failf "parse %S: %s" s e
      | Ok spec ->
          Alcotest.(check (result spec_t string))
            (Printf.sprintf "round-trip %s" s) (Ok spec)
            (parse (Strategy.to_string spec)))
    [
      "3@equivocate"; "1@censor:5"; "2@grief:0.75"; "0@storm:16"; "4@reorder:500us";
      "0@silent"; "0@split"; "0@withhold"; "1@collude";
    ];
  (* Rejections. *)
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "parse %S should fail" s
      | Error _ -> ())
    [
      "equivocate"; "x@equivocate"; "-1@equivocate"; "3@equivocate:1";
      "3@censor"; "3@censor:x"; "3@grief:0"; "3@grief:1.0"; "3@storm:0";
      "3@reorder:0us"; "3@reorder:fast"; "3@bribe"; "0@silent:1"; "0@split:2";
      "0@withhold:3"; "1@collude:0";
    ];
  match Strategy.of_specs [ "3@equivocate"; "oops" ] with
  | Ok _ -> Alcotest.fail "of_specs should report the bad spec"
  | Error e ->
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the offender" true (contains e "oops")

(* ------------------------------------------------------------------ *)
(* System runs: each strategy, installed through the Runner, must leave
   safety intact (honest agreement), keep the chain live, and stamp its
   fires into the trace under rule -2. *)

let base_spec =
  {
    Runner.default_spec with
    n = 8;
    protocol = Runner.Single_clan { nc = 5 };
    txns_per_proposal = 50;
    duration = Time.s 6.;
    warmup = Time.s 1.;
    seed = 11L;
  }

let traced_run spec =
  let obs = Obs.create () in
  let r = Runner.run { spec with Runner.obs = Some obs } in
  (r, Trace.records obs.Obs.trace)

let strategy_fires action records =
  List.filter
    (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Fault_fire { rule = -2; action = a; _ } -> a = action
      | _ -> false)
    records

let attack_run ?(spec = base_spec) adversaries =
  match Strategy.of_specs adversaries with
  | Error e -> Alcotest.failf "bad adversary spec: %s" e
  | Ok advs -> traced_run { spec with Runner.adversaries = advs }

let check_safe_and_live ~name (r : Runner.result) =
  Alcotest.(check bool) (name ^ ": honest agreement") true r.Runner.agreement;
  Alcotest.(check bool) (name ^ ": chain is live") true
    (r.Runner.committed_txns > 0)

let test_equivocate () =
  let r, records = attack_run [ "3@equivocate" ] in
  check_safe_and_live ~name:"equivocate" r;
  let fires = strategy_fires "equivocate" records in
  Alcotest.(check bool) "decoys handed out" true (List.length fires > 10);
  (* The split stays inside the payload clan: every decoy goes to a clan
     member, and per round at most [min f (nc - threshold)] = 2 decoys fly,
     so the real digest always clears both echo thresholds. *)
  let per_dst = Hashtbl.create 8 in
  List.iter
    (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Fault_fire { dst; _ } ->
          Hashtbl.replace per_dst dst
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_dst dst))
      | _ -> ())
    fires;
  Hashtbl.iter
    (fun dst _ ->
      Alcotest.(check bool)
        (Printf.sprintf "decoy recipient %d is a clan member" dst)
        true (dst < 5))
    per_dst;
  (* Decoy holders detect the digest mismatch and fall back to the pull
     path — the attack's whole point. *)
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "equivocation forced pulls" true
    (rep.Analyze.pull_retries > 0)

let test_censor () =
  let r, records = attack_run [ "3@censor:0" ] in
  check_safe_and_live ~name:"censor" r;
  Alcotest.(check bool) "censor fired" true
    (strategy_fires "censor" records <> []);
  (* The victim's vertices still commit — through other proposers' edges —
     so censorship degrades, never excludes. *)
  let victim_commits =
    List.exists
      (fun { Trace.ev; _ } ->
        match ev with
        | Trace.Vertex_commit { source = 0; _ } -> true
        | _ -> false)
      records
  in
  Alcotest.(check bool) "victim still commits" true victim_commits

let test_grief () =
  let r, records = attack_run [ "3@grief:0.8" ] in
  check_safe_and_live ~name:"grief" r;
  Alcotest.(check bool) "grief fired" true
    (strategy_fires "grief" records <> []);
  (* Griefed rounds ride inside the timeout (1.5 s default, 1.2 s hold):
     the leader is slow, never skipped, so every round the griefer leads
     stalls the tribe — and the detector must say exactly that. *)
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "stalls detected" true (rep.Analyze.stalls <> []);
  List.iter
    (fun (st : Analyze.stall) ->
      Alcotest.(check string)
        (Printf.sprintf "window %d..%d blamed on the griefer" st.Analyze.st_from
           st.Analyze.st_until)
        "grief_leader(3)" st.Analyze.st_cause)
    rep.Analyze.stalls

let test_sync_storm () =
  (* The storm needs a victim announcing recovery: crash-recover node 5,
     let node 2 amplify every sync request it observes. *)
  let spec =
    {
      base_spec with
      Runner.duration = Time.s 8.;
      persist = true;
      restarts =
        [ { Faults.node = 5; crash_at = Time.s 2.; recover_at = Time.s 4. } ];
    }
  in
  let r, records = attack_run ~spec [ "2@storm:16" ] in
  check_safe_and_live ~name:"sync_storm" r;
  Alcotest.(check bool) "storm fired" true
    (strategy_fires "sync_storm" records <> []);
  (* Amplification hurts, but the recovering replica still gets back on its
     feet and commits new vertices. *)
  (match List.assoc_opt 5 r.Runner.post_recovery_commits with
  | Some c -> Alcotest.(check bool) "victim recovered anyway" true (c > 0)
  | None -> Alcotest.fail "restart accounting missing")

let test_reorder () =
  let r, records = attack_run [ "3@reorder:2ms" ] in
  check_safe_and_live ~name:"reorder" r;
  Alcotest.(check bool) "reorder fired" true
    (List.length (strategy_fires "reorder" records) > 100)

let test_determinism () =
  (* Attack runs replay bit-identically: strategies draw no randomness.
     Every kind is covered; the storm preys on a recovering replica, so its
     run carries a restart. *)
  let storm_spec =
    {
      base_spec with
      Runner.persist = true;
      restarts =
        [ { Faults.node = 5; crash_at = Time.s 2.; recover_at = Time.s 4. } ];
    }
  in
  List.iter
    (fun (spec, advs) ->
      let name = String.concat "+" advs in
      let r1, records1 = attack_run ~spec advs in
      let r2, records2 = attack_run ~spec advs in
      Alcotest.(check int) (name ^ ": same fingerprint") r1.Runner.commit_fingerprint
        r2.Runner.commit_fingerprint;
      Alcotest.(check int) (name ^ ": same trace length") (List.length records1)
        (List.length records2);
      Alcotest.(check bool) (name ^ ": same trace") true (records1 = records2))
    [
      (base_spec, [ "3@equivocate"; "6@reorder:1ms" ]);
      (base_spec, [ "3@censor:0" ]);
      (base_spec, [ "3@grief:0.8" ]);
      (storm_spec, [ "2@storm:16" ]);
    ]

let test_install_validation () =
  Alcotest.check_raises "bad node id"
    (Invalid_argument "Strategy: bad node id 8 for n=8")
    (fun () ->
      ignore
        (Runner.run
           {
             base_spec with
             Runner.adversaries =
               [ { Strategy.node = 8; kind = Strategy.Equivocate } ];
           }));
  Alcotest.check_raises "censor self"
    (Invalid_argument "Strategy: bad censor victim 3 for node 3")
    (fun () ->
      ignore
        (Runner.run
           {
             base_spec with
             Runner.adversaries =
               [ { Strategy.node = 3; kind = Strategy.Censor 3 } ];
           }))

let test_validate_wire () =
  let check wire specs =
    match Strategy.of_specs specs with
    | Error e -> Alcotest.failf "parse: %s" e
    | Ok l -> Strategy.validate ~n:4 ~wire l
  in
  Alcotest.(check (result unit string))
    "RBC-only kind on the Sailfish wire"
    (Error "Strategy: 0@split runs on the RBC wire only")
    (check `Sailfish [ "0@split" ]);
  Alcotest.(check (result unit string))
    "Sailfish-only kind on the RBC wire"
    (Error "Strategy: 0@grief:0.9 runs on the Sailfish wire only")
    (check `Rbc [ "0@grief:0.9" ]);
  Alcotest.(check (result unit string))
    "equivocate runs on both wires" (Ok ())
    (Result.bind (check `Rbc [ "0@equivocate" ]) (fun () ->
         check `Sailfish [ "0@equivocate" ]));
  Alcotest.(check (result unit string))
    "RBC sender kind away from the sender"
    (Error "Strategy: 3@withhold is a sender kind; the RBC sender is node 0")
    (check `Rbc [ "3@withhold" ]);
  Alcotest.(check (result unit string))
    "equivocate anywhere on the Sailfish wire" (Ok ())
    (check `Sailfish [ "3@equivocate" ]);
  Alcotest.(check (result unit string))
    "one node, one occupant"
    (Error "Strategy: node 0 occupied twice")
    (check `Rbc [ "0@split"; "0@collude" ]);
  Alcotest.(check (result unit string))
    "a split sender and a colluder" (Ok ())
    (check `Rbc [ "0@split"; "1@collude" ])

(* ------------------------------------------------------------------ *)
(* Satellite 1: the vertex/block fetch loops back off exponentially.
   Equivocation seeds decoy holders that must pull the real vertex; a
   fault rule eats every reply, so the loops spin for the whole run. With
   the 16 x sync_retry ceiling each stuck slot's retry count stays small;
   the old constant-interval loop fired an order of magnitude more. *)

let test_pull_retries_bounded () =
  let spec =
    {
      base_spec with
      Runner.duration = Time.s 8.;
      fault_plan =
        Faults.plan
          ~rules:
            [
              Faults.rule
                ~kinds:[ "vertex_reply"; "block_reply" ]
                (Faults.Drop 1.0);
            ]
          ();
    }
  in
  let _, records = attack_run ~spec [ "3@equivocate" ] in
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "loops actually engaged" true
    (rep.Analyze.pull_retries > 0);
  (* Budget: each stuck slot sweeps its candidate ring with inter-sweep
     delays 150 ms x (1,2,4,8,16,16,...), so a multi-second loop completes
     ~5 sweeps where the old constant-spacing loop completed 20+. This
     seed measures 743 retries with backoff; the constant-interval loop
     sat at roughly 4-5x that, so 2000 cleanly separates the two. *)
  Alcotest.(check bool)
    (Printf.sprintf "retries bounded by backoff (got %d)"
       rep.Analyze.pull_retries)
    true
    (rep.Analyze.pull_retries < 2_000)

let suites =
  [
    ( "strategy",
      [
        Alcotest.test_case "DSL parser" `Quick test_parser;
        Alcotest.test_case "equivocate: clan split, safe" `Quick test_equivocate;
        Alcotest.test_case "censor: victim delayed, not excluded" `Quick
          test_censor;
        Alcotest.test_case "grief: stalls named grief_leader" `Quick test_grief;
        Alcotest.test_case "sync storm: victim recovers" `Quick test_sync_storm;
        Alcotest.test_case "reorder: safe under inversion" `Quick test_reorder;
        Alcotest.test_case "attack runs are deterministic" `Quick
          test_determinism;
        Alcotest.test_case "install validates ids" `Quick
          test_install_validation;
        Alcotest.test_case "pull retries bounded under reply loss" `Quick
          test_pull_retries_bounded;
        Alcotest.test_case "validate checks the wire" `Quick test_validate_wire;
      ] );
  ]
