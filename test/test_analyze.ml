open Clanbft
open Clanbft.Sim

(* ------------------------------------------------------------------ *)
(* Trace-analysis engine: critical-path attribution, stall detection. *)

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

(* Run [spec] with a buffered trace and return (result, records). *)
let traced_run spec =
  let obs = Obs.create () in
  let r = Runner.run { spec with Runner.obs = Some obs } in
  (r, Trace.records obs.Obs.trace)

let benign = lazy (traced_run base_spec)

(* The acceptance bar for attribution: clamped milestones telescope, so
   the five segments sum *exactly* to commit - origin on every path. *)
let test_segments_sum () =
  let r, records = Lazy.force benign in
  Alcotest.(check bool) "run committed" true (r.Runner.committed_txns > 0);
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "paths found" true (rep.Analyze.paths <> []);
  List.iter
    (fun (p : Analyze.path) ->
      let sum = Array.fold_left ( + ) 0 p.Analyze.p_segments in
      Alcotest.(check int)
        (Printf.sprintf "segments sum, r%d/s%d@%d" p.Analyze.p_round
           p.Analyze.p_source p.Analyze.p_node)
        (p.Analyze.p_commit - p.Analyze.p_origin)
        sum;
      Alcotest.(check bool) "origin before commit" true
        (p.Analyze.p_origin <= p.Analyze.p_commit);
      Array.iter
        (fun s -> Alcotest.(check bool) "segment non-negative" true (s >= 0))
        p.Analyze.p_segments)
    rep.Analyze.paths;
  Alcotest.(check int) "e2e covers every path"
    (List.length rep.Analyze.paths)
    rep.Analyze.e2e.Analyze.count;
  (* Every commit carries real latency: the origin anchor is the sender's
     PROPOSE, strictly before any replica can commit the vertex. *)
  Alcotest.(check bool) "e2e positive" true (rep.Analyze.e2e.Analyze.p50_us > 0)

let test_benign_run_is_quiet () =
  let _, records = Lazy.force benign in
  let rep = Analyze.analyze records in
  Alcotest.(check int) "no stalls in a benign run" 0
    (List.length rep.Analyze.stalls);
  Alcotest.(check bool) "rounds observed" true
    (List.length rep.Analyze.rounds > 10);
  Alcotest.(check int) "no pull retries" 0 rep.Analyze.pull_retries;
  (* Uplink accounting covers every replica. *)
  Alcotest.(check int) "uplink per node" base_spec.Runner.n
    (List.length rep.Analyze.uplinks);
  List.iter
    (fun (u : Analyze.uplink_info) ->
      Alcotest.(check bool) "uplink carried traffic" true
        (u.Analyze.u_messages > 0 && u.Analyze.u_bytes > 0))
    rep.Analyze.uplinks

let test_deterministic_output () =
  (* Same seed, two independent traced runs: the rendered reports are
     byte-identical. *)
  let _, records1 = Lazy.force benign in
  let _, records2 = traced_run base_spec in
  let rep1 = Analyze.analyze records1 and rep2 = Analyze.analyze records2 in
  Alcotest.(check string) "json identical" (Analyze.to_json rep1)
    (Analyze.to_json rep2);
  Alcotest.(check string) "human identical" (Analyze.human rep1)
    (Analyze.human rep2)

let test_load_jsonl_roundtrip () =
  let _, records = Lazy.force benign in
  let tr = Trace.create () in
  List.iter (fun { Trace.ts; ev } -> Trace.emit tr ~ts ev) records;
  let path = Filename.temp_file "clanbft_analyze" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_jsonl tr path;
      let back = Analyze.load_jsonl path in
      Alcotest.(check int) "record count survives" (List.length records)
        (List.length back);
      Alcotest.(check bool) "records survive" true (back = records);
      (* And hence the analysis is the file-based one, byte for byte. *)
      Alcotest.(check string) "same report"
        (Analyze.to_json (Analyze.analyze records))
        (Analyze.to_json (Analyze.analyze back)))

(* ------------------------------------------------------------------ *)
(* Stall detection under injected faults (the faults DSL scenarios). *)

let test_muted_leader_stall () =
  (* Mute replica 3 from t=3s of an 8s run: every round it leads from
     then on blocks until the timeout path fires, and the detector must
     name it. *)
  let spec =
    {
      base_spec with
      Runner.duration = Time.s 8.;
      fault_plan =
        Faults.plan
          ~mutes:
            [ { Faults.node = 3; after_round = max_int; after_time = Time.s 3. } ]
          ();
    }
  in
  let _, records = traced_run spec in
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "stall detected" true (rep.Analyze.stalls <> []);
  List.iter
    (fun (st : Analyze.stall) ->
      Alcotest.(check string) "blamed on the muted leader" "muted_leader(3)"
        st.Analyze.st_cause;
      Alcotest.(check bool) "window after the mute" true
        (st.Analyze.st_from >= Time.s 3.);
      Alcotest.(check bool) "gap is the window" true
        (st.Analyze.st_gap_us = st.Analyze.st_until - st.Analyze.st_from))
    rep.Analyze.stalls

let test_partition_stall () =
  (* Split the tribe 4|4 for the first 3 s: no echo quorum on either
     side, so no round advances until the heal — blamed on the
     partition, not on any leader. *)
  let spec =
    {
      base_spec with
      Runner.duration = Time.s 8.;
      fault_plan =
        Faults.plan
          ~partitions:
            [
              {
                Faults.groups = [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ] ];
                part_from = Time.zero;
                heal_at = Time.s 3.;
              };
            ]
          ();
    }
  in
  let _, records = traced_run spec in
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "stall detected" true (rep.Analyze.stalls <> []);
  let causes =
    List.sort_uniq compare
      (List.map (fun st -> st.Analyze.st_cause) rep.Analyze.stalls)
  in
  Alcotest.(check (list string)) "blamed on the partition" [ "partition" ]
    causes;
  (* The stalled window is the partitioned prefix. *)
  List.iter
    (fun (st : Analyze.stall) ->
      Alcotest.(check bool) "window inside the split" true
        (st.Analyze.st_until <= Time.s 3. + Time.s 1.))
    rep.Analyze.stalls

let test_observed_pairs_beat_modular_guess () =
  (* Regression (PR 9): a recovery-induced commit stall with an unrelated
     mute in the window. The observed leader rotation is offset from
     [r mod n] (as happens whenever the trace under-infers n), so the old
     modular fallback — and the old habit of matching *every* candidate
     round, committed or not — both pin the stall on the muted replica.
     Rounds whose anchors demonstrably committed cannot be leader-blocked;
     the true cause is the state sync in flight. *)
  let ev ts e = { Trace.ts; ev = e } in
  let propose r ts =
    ev ts
      (Trace.Rbc_phase
         { node = (r + 2) mod 4; sender = (r + 2) mod 4; round = r;
           phase = Trace.Propose })
  in
  let anchor_commit r ts =
    (* Observed pair: round r's anchor, led by (r + 2) mod 4. *)
    ev ts
      (Trace.Vertex_commit
         { node = 0; round = r; source = (r + 2) mod 4; leader_round = r })
  in
  let records =
    List.concat
      [
        List.init 6 (fun r -> propose r (r * 100_000));
        [ propose 6 650_000 ];
        List.init 6 (fun r -> anchor_commit r ((r * 100_000) + 50_000));
        [
          (* Node 2 recovers across the whole quiet window... *)
          ev 560_000 (Trace.Recovery { node = 2; stage = "sync_start"; round = 0 });
          (* ...while node 3 — round 5's *observed* leader, and [7 mod 4] —
             goes mute without blocking anything. *)
          ev 600_000
            (Trace.Fault_fire
               { rule = -1; action = "mute"; kind = "val"; src = 3; dst = 0 });
          ev 1_600_000
            (Trace.Recovery { node = 2; stage = "caught_up"; round = 0 });
          (* The commit ending the stall: round 6, a non-anchor vertex. *)
          ev 1_650_000
            (Trace.Vertex_commit
               { node = 0; round = 6; source = 0; leader_round = 4 });
        ];
      ]
    |> List.sort (fun a b -> compare a.Trace.ts b.Trace.ts)
  in
  let rep = Analyze.analyze records in
  let commit_stall =
    List.find_opt
      (fun st -> st.Analyze.st_kind = `Commit && st.Analyze.st_from = 550_000)
      rep.Analyze.stalls
  in
  Alcotest.(check bool) "commit stall detected" true (commit_stall <> None);
  List.iter
    (fun (st : Analyze.stall) ->
      Alcotest.(check string)
        (Printf.sprintf "window %d..%d blamed on sync" st.Analyze.st_from
           st.Analyze.st_until)
        "state_sync" st.Analyze.st_cause)
    rep.Analyze.stalls

let test_crash_plus_mute_attribution () =
  (* System-level companion: replica 5 crash-recovers across 2s..4s while
     replica 3 is muted from 3s on. Every stall must land on one of the two
     real causes — never on "unknown", and never on the muted replica for a
     window that closed before the mute existed. *)
  let spec =
    {
      base_spec with
      Runner.duration = Time.s 8.;
      persist = true;
      restarts =
        [ { Faults.node = 5; crash_at = Time.s 2.; recover_at = Time.s 4. } ];
      fault_plan =
        Faults.plan
          ~mutes:
            [ { Faults.node = 3; after_round = max_int; after_time = Time.s 3. } ]
          ();
    }
  in
  let _, records = traced_run spec in
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "stall detected" true (rep.Analyze.stalls <> []);
  List.iter
    (fun (st : Analyze.stall) ->
      let cause = st.Analyze.st_cause in
      Alcotest.(check bool)
        (Printf.sprintf "cause named (%s, window %d..%d)" cause
           st.Analyze.st_from st.Analyze.st_until)
        true
        (cause = "muted_leader(3)" || cause = "state_sync");
      if cause = "muted_leader(3)" then
        Alcotest.(check bool) "mute blamed only once it exists" true
          (st.Analyze.st_until >= Time.s 3.))
    rep.Analyze.stalls

let test_attack_cause_matrix () =
  (* The five strategy signatures (docs/ATTACKS.md): a stall whose window
     contains a rule -2 Fault_fire is named after the attack, never
     "unknown". One synthetic trace per strategy — identical except for
     the fire — with leader rotation r mod 4 and a quiet window after
     round 5 starts. Grief must additionally match a stalled round the
     griefer leads (round 5's extrapolated leader is 1). *)
  let ev ts e = { Trace.ts; ev = e } in
  let trace fire_src action =
    List.concat
      [
        List.init 6 (fun r ->
            ev (r * 100_000)
              (Trace.Rbc_phase
                 { node = r mod 4; sender = r mod 4; round = r;
                   phase = Trace.Propose }));
        List.init 5 (fun r ->
            ev ((r * 100_000) + 50_000)
              (Trace.Vertex_commit
                 { node = 0; round = r; source = r mod 4; leader_round = r }));
        [
          ev 700_000
            (Trace.Fault_fire
               { rule = -2; action; kind = "val"; src = fire_src; dst = 0 });
          ev 1_500_000
            (Trace.Vertex_commit
               { node = 0; round = 6; source = 0; leader_round = 4 });
        ];
      ]
    |> List.sort (fun a b -> compare a.Trace.ts b.Trace.ts)
  in
  List.iter
    (fun (src, action, expect) ->
      let rep = Analyze.analyze (trace src action) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: stall detected" action)
        true (rep.Analyze.stalls <> []);
      List.iter
        (fun (st : Analyze.stall) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: window %d..%d" action st.Analyze.st_from
               st.Analyze.st_until)
            expect st.Analyze.st_cause)
        rep.Analyze.stalls)
    [
      (1, "grief", "grief_leader(1)");
      (3, "censor", "censorship(3)");
      (3, "equivocate", "equivocation(3)");
      (3, "sync_storm", "sync_storm");
      (3, "reorder", "reorder(3)");
    ]

let test_dead_trace_is_one_big_stall () =
  (* Rounds start but nothing ever commits: flagged as a full-span
     commit stall even though there are too few gaps for a median. *)
  let records =
    [
      { Trace.ts = 0; ev = Trace.Rbc_phase { node = 0; sender = 0; round = 0; phase = Trace.Propose } };
      { Trace.ts = 100_000; ev = Trace.Rbc_phase { node = 1; sender = 1; round = 1; phase = Trace.Propose } };
      { Trace.ts = 900_000; ev = Trace.Msg_send { src = 0; dst = 1; kind = "val"; bytes = 10 } };
    ]
  in
  let rep = Analyze.analyze records in
  Alcotest.(check bool) "flagged" true
    (List.exists
       (fun st -> st.Analyze.st_kind = `Commit && st.Analyze.st_gap_us = 900_000)
       rep.Analyze.stalls)

let suites =
  [
    ( "analyze",
      [
        Alcotest.test_case "segments sum to e2e" `Quick test_segments_sum;
        Alcotest.test_case "benign run is quiet" `Quick test_benign_run_is_quiet;
        Alcotest.test_case "deterministic output" `Quick test_deterministic_output;
        Alcotest.test_case "load_jsonl round-trip" `Quick test_load_jsonl_roundtrip;
        Alcotest.test_case "muted leader stall" `Quick test_muted_leader_stall;
        Alcotest.test_case "partition stall" `Quick test_partition_stall;
        Alcotest.test_case "observed pairs beat modular guess" `Quick
          test_observed_pairs_beat_modular_guess;
        Alcotest.test_case "crash+mute attribution" `Quick
          test_crash_plus_mute_attribution;
        Alcotest.test_case "attack cause matrix" `Quick
          test_attack_cause_matrix;
        Alcotest.test_case "dead trace stalls" `Quick test_dead_trace_is_one_big_stall;
      ] );
  ]
