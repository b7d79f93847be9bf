open Clanbft
open Clanbft.Sim
open Clanbft.Crypto

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Mempool *)

let mk_txn id = Transaction.make ~id ~client:0 ~created_at:0 ()

let test_mempool_fifo () =
  let m = Mempool.create () in
  List.iter (fun i -> ignore (Mempool.submit m (mk_txn i))) [ 1; 2; 3; 4 ];
  let batch = Mempool.take m ~max:3 in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ]
    (Array.to_list (Array.map (fun (t : Transaction.t) -> t.id) batch));
  Alcotest.(check int) "remaining" 1 (Mempool.pending m);
  Alcotest.(check int) "take rest" 1 (Array.length (Mempool.take m ~max:10));
  Alcotest.(check int) "empty take" 0 (Array.length (Mempool.take m ~max:10))

let test_mempool_capacity () =
  let m = Mempool.create ~capacity:2 () in
  Alcotest.(check bool) "1 ok" true (Mempool.submit m (mk_txn 1));
  Alcotest.(check bool) "2 ok" true (Mempool.submit m (mk_txn 2));
  Alcotest.(check bool) "3 rejected" false (Mempool.submit m (mk_txn 3));
  Alcotest.(check int) "submitted" 2 (Mempool.submitted_total m);
  Alcotest.(check int) "rejected" 1 (Mempool.rejected_total m)

(* ------------------------------------------------------------------ *)
(* Execution *)

let block_of_ids ~proposer ~round ids =
  Block.make ~proposer ~round ~txns:(Array.of_list (List.map mk_txn ids))

let test_execution_deterministic () =
  let run () =
    let e = Execution.create () in
    Execution.apply_block e (block_of_ids ~proposer:0 ~round:0 [ 1; 2 ]);
    Execution.apply_block e (block_of_ids ~proposer:1 ~round:0 [ 3 ]);
    Execution.state_digest e
  in
  Alcotest.(check bool) "same state" true (Digest32.equal (run ()) (run ()))

let test_execution_order_sensitive () =
  let e1 = Execution.create () and e2 = Execution.create () in
  let a = block_of_ids ~proposer:0 ~round:0 [ 1 ] in
  let b = block_of_ids ~proposer:1 ~round:0 [ 2 ] in
  Execution.apply_block e1 a;
  Execution.apply_block e1 b;
  Execution.apply_block e2 b;
  Execution.apply_block e2 a;
  Alcotest.(check bool) "order matters" false
    (Digest32.equal (Execution.state_digest e1) (Execution.state_digest e2))

let test_execution_skip_equivalent_chain () =
  (* skip_block folds the digest only, so a replica outside the clan tracks
     the same chain as one that executed the payload. *)
  let full = Execution.create () and light = Execution.create () in
  let b = block_of_ids ~proposer:0 ~round:0 [ 1; 2; 3 ] in
  Execution.apply_block full b;
  Execution.skip_block light (Block.digest b);
  Alcotest.(check bool) "same chain" true
    (Digest32.equal (Execution.state_digest full) (Execution.state_digest light));
  Alcotest.(check int) "txns counted only when executed" 0 (Execution.executed_txns light);
  Alcotest.(check int) "full counts" 3 (Execution.executed_txns full)

let test_execution_responses () =
  let e1 = Execution.create () and e2 = Execution.create () in
  let b = block_of_ids ~proposer:0 ~round:0 [ 1 ] in
  Execution.apply_block e1 b;
  Execution.apply_block e2 b;
  let txn = mk_txn 1 in
  Alcotest.(check bool) "matching responses" true
    (Digest32.equal (Execution.response e1 txn) (Execution.response e2 txn));
  Execution.apply_block e2 (block_of_ids ~proposer:1 ~round:1 [ 2 ]);
  Alcotest.(check bool) "diverged state, diverged response" false
    (Digest32.equal (Execution.response e1 txn) (Execution.response e2 txn))

(* ------------------------------------------------------------------ *)
(* Persist *)

let test_persist_write_latency () =
  let engine = Engine.create () in
  let p = Persist.create ~engine ~write_latency:(Time.us 100) ~write_bandwidth_mbps:100. () in
  let done_at = ref (-1) in
  Persist.put p ~size:1_000_000 ~on_durable:(fun () -> done_at := Engine.now engine);
  Alcotest.(check int) "not yet durable" (-1) !done_at;
  Alcotest.(check int) "backlog" 1 (Persist.backlog p);
  Engine.run engine;
  (* 100µs + 1MB at 100MB/s = 10_000µs *)
  Alcotest.(check int) "durable at latency+transfer" 10_100 !done_at;
  Alcotest.(check int) "backlog drained" 0 (Persist.backlog p);
  Alcotest.(check int) "bytes" 1_000_000 (Persist.bytes_written p)

let test_persist_fifo_queue () =
  let engine = Engine.create () in
  let p = Persist.create ~engine ~write_latency:(Time.us 50) ~write_bandwidth_mbps:1. () in
  let order = ref [] in
  Persist.put p ~size:100 ~on_durable:(fun () -> order := "a" :: !order);
  Persist.put p ~size:100 ~on_durable:(fun () -> order := "b" :: !order);
  Alcotest.(check int) "both queued" 2 (Persist.backlog p);
  Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "a"; "b" ] (List.rev !order);
  (* second write queues behind the first: 2*(50+100) *)
  Alcotest.(check int) "queued completion" 300 (Engine.now engine)

let test_persist_metadata_only () =
  (* A put is a pure disk-queue charge: it stores nothing, and a crash
     before completion loses its callback but not its accounting. *)
  let engine = Engine.create () in
  let p = Persist.create ~engine () in
  let fired = ref 0 in
  Persist.put p ~size:10 ~on_durable:(fun () -> incr fired);
  Engine.run engine;
  Alcotest.(check int) "durable" 1 !fired;
  Persist.put p ~size:10 ~on_durable:(fun () -> incr fired);
  Persist.crash p;
  Engine.run engine;
  Alcotest.(check int) "lost with the process" 1 !fired;
  Alcotest.(check int) "backlog reset" 0 (Persist.backlog p);
  Alcotest.(check int) "writes" 2 (Persist.writes p);
  Alcotest.(check int) "bytes" 20 (Persist.bytes_written p)

(* ------------------------------------------------------------------ *)
(* Client *)

let test_client_fc1_completion () =
  let engine = Engine.create () in
  let config = Config.make ~n:10 (Config.Single_clan [| 0; 2; 4; 6; 8 |]) in
  (* fc of 5 = 2, so 3 matching responses complete a transaction *)
  let completions = ref [] in
  let c =
    Client.create ~engine ~config ~id:1
      ~on_complete:(fun txn ~latency -> completions := (txn.Transaction.id, latency) :: !completions)
      ()
  in
  let txn = Client.make_txn c () in
  Client.track c txn ~clan:0;
  let digest = Digest32.hash_string "result" in
  Client.deliver_response c ~executor:0 txn digest;
  Client.deliver_response c ~executor:2 txn digest;
  Alcotest.(check int) "not yet complete" 0 (Client.completed c);
  Client.deliver_response c ~executor:4 txn digest;
  Alcotest.(check int) "complete at fc+1" 1 (Client.completed c);
  Alcotest.(check int) "callback fired" 1 (List.length !completions);
  (* further responses are no-ops *)
  Client.deliver_response c ~executor:6 txn digest;
  Alcotest.(check int) "still one" 1 (Client.completed c)

let test_client_mismatched_responses () =
  let engine = Engine.create () in
  let config = Config.make ~n:10 (Config.Single_clan [| 0; 2; 4; 6; 8 |]) in
  let c = Client.create ~engine ~config ~id:1 () in
  let txn = Client.make_txn c () in
  Client.track c txn ~clan:0;
  (* Three responses but only two agree: not enough. *)
  Client.deliver_response c ~executor:0 txn (Digest32.hash_string "good");
  Client.deliver_response c ~executor:2 txn (Digest32.hash_string "evil");
  Client.deliver_response c ~executor:4 txn (Digest32.hash_string "good");
  Alcotest.(check int) "no quorum on a digest" 0 (Client.completed c);
  Alcotest.(check int) "pending" 1 (Client.pending c);
  Client.deliver_response c ~executor:6 txn (Digest32.hash_string "good");
  Alcotest.(check int) "good digest reaches fc+1" 1 (Client.completed c)

let test_client_ignores_outsiders () =
  let engine = Engine.create () in
  let config = Config.make ~n:10 (Config.Single_clan [| 0; 2; 4; 6; 8 |]) in
  let c = Client.create ~engine ~config ~id:1 () in
  let txn = Client.make_txn c () in
  Client.track c txn ~clan:0;
  let digest = Digest32.hash_string "x" in
  (* Non-clan parties (and duplicates) must not count towards the quorum. *)
  Client.deliver_response c ~executor:1 txn digest;
  Client.deliver_response c ~executor:3 txn digest;
  Client.deliver_response c ~executor:5 txn digest;
  Client.deliver_response c ~executor:0 txn digest;
  Client.deliver_response c ~executor:0 txn digest;
  Alcotest.(check int) "outsiders ignored" 0 (Client.completed c)

let test_client_unique_ids () =
  let engine = Engine.create () in
  let config = Config.make ~n:4 Config.Full in
  let c1 = Client.create ~engine ~config ~id:1 () in
  let c2 = Client.create ~engine ~config ~id:2 () in
  let a = Client.make_txn c1 () and b = Client.make_txn c1 () in
  let x = Client.make_txn c2 () in
  Alcotest.(check bool) "distinct within client" true (a.Transaction.id <> b.Transaction.id);
  Alcotest.(check bool) "distinct across clients" true (b.Transaction.id <> x.Transaction.id)

(* ------------------------------------------------------------------ *)
(* Node-level integration: mempool -> consensus -> execution *)

let cluster ?(n = 4) ?on_txn_executed dissemination =
  let w =
    Smr_world.create ~topology:(Topology.uniform ~n ~one_way_ms:5.0)
      ~net:{ Net.default_config with jitter = 0.0 } ~seed:4L ?on_txn_executed
      (Config.make ~n dissemination)
  in
  Smr_world.start w;
  (w.engine, Array.of_list (Smr_world.replicas w))

(* Submit to a fresh 4-replica cluster, then run it for 4 s. *)
let run_cluster dissemination submit =
  let engine, nodes = cluster dissemination in
  submit nodes;
  Engine.run ~until:(Time.s 4.) engine;
  nodes

let test_node_executes_submitted_txns () =
  let nodes =
    run_cluster Config.Full (fun nodes ->
        for i = 1 to 50 do
          ignore (Node.submit nodes.(i mod 4) (mk_txn i))
        done)
  in
  Array.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "node %d executed all" (Node.me node))
        50 (Node.executed_txns node))
    nodes;
  (* replicated states agree *)
  let d0 = Execution.state_digest (Node.execution nodes.(0)) in
  Array.iter
    (fun node ->
      Alcotest.(check bool) "states equal" true
        (Digest32.equal d0 (Execution.state_digest (Node.execution node))))
    nodes

let test_node_single_clan_execution_split () =
  let clan = [| 0; 2 |] in
  let nodes =
    run_cluster (Config.Single_clan clan) (fun nodes ->
        for i = 1 to 30 do
          (* clients submit to clan members only (§5) *)
          ignore (Node.submit nodes.(if i mod 2 = 0 then 0 else 2) (mk_txn i))
        done)
  in
  Alcotest.(check int) "clan member 0 executed" 30 (Node.executed_txns nodes.(0));
  Alcotest.(check int) "clan member 2 executed" 30 (Node.executed_txns nodes.(2));
  Alcotest.(check int) "outsider 1 executed nothing" 0 (Node.executed_txns nodes.(1));
  Alcotest.(check bool) "clan states agree" true
    (Digest32.equal
       (Execution.state_digest (Node.execution nodes.(0)))
       (Execution.state_digest (Node.execution nodes.(2))))

let test_node_multi_clan_execution_split () =
  let clans = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let nodes =
    run_cluster (Config.Multi_clan clans) (fun nodes ->
        for i = 1 to 20 do
          ignore (Node.submit nodes.(0) (mk_txn i));
          ignore (Node.submit nodes.(2) (mk_txn (1000 + i)))
        done)
  in
  (* Each clan executes only its own payloads... *)
  Alcotest.(check int) "clan 0 member" 20 (Node.executed_txns nodes.(0));
  Alcotest.(check int) "clan 1 member" 20 (Node.executed_txns nodes.(2));
  (* ...but the digest chains (payload + skip folds) agree globally. *)
  Alcotest.(check bool) "cross-clan chain agreement" true
    (Digest32.equal
       (Execution.state_digest (Node.execution nodes.(0)))
       (Execution.state_digest (Node.execution nodes.(2))))

let test_node_txn_receipts () =
  let n = 4 in
  let receipts = Array.init n (fun _ -> ref []) in
  let engine, nodes =
    cluster ~n
      ~on_txn_executed:(fun me txn digest ->
        receipts.(me) := (txn.Transaction.id, digest) :: !(receipts.(me)))
      Config.Full
  in
  ignore (Node.submit nodes.(1) (mk_txn 42));
  Engine.run ~until:(Time.s 3.) engine;
  (* All replicas produce the same receipt for txn 42 — the f_c+1 matching
     condition the client checks. *)
  let r0 = List.assoc 42 !(receipts.(0)) in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "receipt %d matches" i) true
        (Digest32.equal r0 (List.assoc 42 !r)))
    receipts

(* ------------------------------------------------------------------ *)
(* Ledger: the one commit-prefix rule *)

module Ledger = Smr_world.Ledger

let ledger_of sequences =
  let l = Ledger.create ~n:(List.length sequences) in
  List.iteri
    (fun me seq ->
      List.iter (fun (round, source) -> Ledger.commit l me ~checked:true ~round ~source) seq)
    sequences;
  l

let divergence_testable =
  Alcotest.testable (fun ppf d -> Format.pp_print_string ppf (Smr_world.describe d)) ( = )

(* Comparing every ledger at the shortest one's last position sees
   neither divergence: one lies past the shortest ledger, the other sits
   beside an empty one. Checking each commit against the first replica to
   reach its position sees both. *)
let test_ledger_divergence () =
  List.iter
    (fun (sequences, node, position, slot, canonical) ->
      Alcotest.(check (option divergence_testable))
        (Printf.sprintf "replica %d diverges at position %d" node position)
        (Some { Smr_world.node; position; slot; canonical })
        (Ledger.divergence (ledger_of sequences)))
    [
      ([ [ (0, 0); (0, 1); (1, 0) ]; [ (0, 0); (0, 1); (1, 2) ]; [ (0, 0) ] ], 1, 2, (1, 2), (1, 0));
      ([ [ (0, 0) ]; [ (0, 1) ]; [] ], 1, 0, (0, 1), (0, 0));
    ];
  Alcotest.(check string) "detail"
    "node 1 committed (0,1) at position 0 where the canonical order has (0,0)"
    (Smr_world.describe (Option.get (Ledger.divergence (ledger_of [ [ (0, 0) ]; [ (0, 1) ] ]))))

(* An unchecked ledger claims nothing; a replayed one restarts at position
   0 and is checked again from genesis. *)
let test_ledger_unchecked_and_replayed () =
  let l3 = Ledger.create ~n:3 in
  List.iter
    (fun (me, checked, round, source) -> Ledger.commit l3 me ~checked ~round ~source)
    [ (0, true, 0, 0); (0, true, 0, 1); (2, false, 0, 3); (1, true, 0, 0) ];
  Ledger.reset l3 1;
  List.iter (fun (round, source) -> Ledger.commit l3 1 ~checked:true ~round ~source) [ (0, 0); (0, 1) ];
  Alcotest.(check (option divergence_testable)) "no divergence" None (Ledger.divergence l3);
  Alcotest.(check (array (pair int int))) "replayed sequence" [| (0, 0); (0, 1) |]
    (Ledger.sequence l3 1);
  Alcotest.(check (array int)) "replayed chain" (Ledger.chain l3 0) (Ledger.chain l3 1);
  Alcotest.(check int) "replayed fingerprint"
    (Ledger.fingerprint (ledger_of [ [ (0, 0); (0, 1) ]; [ (0, 0); (0, 1) ] ]) [ 0; 1 ])
    (Ledger.fingerprint l3 [ 0; 1 ]);
  Ledger.commit l3 1 ~checked:true ~round:1 ~source:3;
  Ledger.commit l3 0 ~checked:true ~round:1 ~source:0;
  Alcotest.(check (option divergence_testable)) "the later commit diverges"
    (Some { Smr_world.node = 0; position = 2; slot = (1, 0); canonical = (1, 3) })
    (Ledger.divergence l3)

(* ------------------------------------------------------------------ *)
(* Runner *)

let base_spec =
  {
    Runner.default_spec with
    n = 10;
    duration = Time.s 6.;
    warmup = Time.s 2.;
    txns_per_proposal = 100;
    topology = `Uniform 10.0;
  }

let test_runner_full () =
  let r = Runner.run { base_spec with protocol = Runner.Full } in
  Alcotest.(check bool) "throughput > 0" true (r.throughput_ktps > 0.0);
  Alcotest.(check bool) "latency sane" true
    (r.latency_mean_ms > 20.0 && r.latency_mean_ms < 2_000.0);
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "rounds advanced" true (r.rounds > 10)

let test_runner_single_clan_less_traffic () =
  let full = Runner.run { base_spec with protocol = Runner.Full } in
  let single = Runner.run { base_spec with protocol = Runner.Single_clan { nc = 5 } } in
  Alcotest.(check bool) "clan egress below full egress" true
    (single.mb_per_node_per_s < full.mb_per_node_per_s);
  Alcotest.(check bool) "both agree" true (full.agreement && single.agreement)

let test_runner_multi_clan () =
  let r = Runner.run { base_spec with protocol = Runner.Multi_clan { q = 2 } } in
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "throughput > 0" true (r.throughput_ktps > 0.0)

let test_runner_sparse () =
  let r = Runner.run { base_spec with protocol = Runner.Sparse { k = 3 } } in
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check bool) "throughput > 0" true (r.throughput_ktps > 0.0);
  Alcotest.(check bool) "rounds advanced" true (r.rounds > 10);
  (* Sparse shares the dissemination path with Full, so at n=10 the
     only traffic saved is edge metadata — but it must save some. *)
  let full = Runner.run { base_spec with protocol = Runner.Full } in
  Alcotest.(check bool) "fewer bytes than dense" true
    (r.bytes_total < full.bytes_total)

let test_runner_sparse_all_parents_matches_dense () =
  (* With k >= n the sparse selector keeps every available parent, so the
     DAG (and hence the commit order) must match the dense run's. The
     jitter-free uniform network keeps the two runs' round pacing in
     lockstep despite the compact form's smaller vertices. *)
  let spec =
    {
      base_spec with
      net = { Net.default_config with jitter = 0.0 };
      duration = Time.s 5.;
    }
  in
  let dense = Runner.run { spec with protocol = Runner.Full } in
  let sparse = Runner.run { spec with protocol = Runner.Sparse { k = spec.n } } in
  Alcotest.(check bool) "both agree" true (dense.agreement && sparse.agreement);
  let len =
    min (Array.length dense.commit_chain) (Array.length sparse.commit_chain)
  in
  Alcotest.(check bool) "committed something" true (len > 0);
  Alcotest.(check int) "common commit prefix"
    dense.commit_chain.(len - 1)
    sparse.commit_chain.(len - 1)

(* A crashed replica sends nothing, so it never echoes toward the other
   replicas' quorums. *)
let test_runner_crashed_replica_is_silent () =
  let obs = Obs.create () in
  let r =
    Runner.run
      {
        Runner.default_spec with
        n = 16;
        seed = 1L;
        txns_per_proposal = 30;
        duration = Time.s 3.;
        warmup = Time.s 1.;
        crashed = [ 9 ];
        obs = Some obs;
      }
  in
  Alcotest.(check bool) "agreement" true r.agreement;
  let from_9 = ref 0 in
  Trace.iter obs.Obs.trace (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Msg_bcast { src = 9; _ } | Msg_recv { src = 9; _ } -> incr from_9
      | _ -> ());
  Alcotest.(check bool) "traced" true (Trace.length obs.Obs.trace > 0);
  Alcotest.(check int) "records with src 9" 0 !from_9

let test_runner_crash_faults () =
  let r = Runner.run { base_spec with crashed = [ 1; 4; 7 ]; duration = Time.s 8. } in
  Alcotest.(check bool) "progress with f crashes" true (r.committed_txns > 0);
  Alcotest.(check bool) "agreement" true r.agreement

let test_runner_topology_matters () =
  (* Geo-distributed latency must show up in the metrics: the GCP matrix
     (RTTs up to 295 ms) vs a 5 ms-one-way uniform network. *)
  let gcp = Runner.run { base_spec with topology = `Gcp } in
  let local = Runner.run { base_spec with topology = `Uniform 5.0 } in
  Alcotest.(check bool)
    (Printf.sprintf "gcp latency (%.0f) >> local (%.0f)" gcp.latency_mean_ms
       local.latency_mean_ms)
    true
    (gcp.latency_mean_ms > 3.0 *. local.latency_mean_ms)

let test_runner_deterministic () =
  (* Dense and sparse edges alike: every sampled parent derives from the
     run seed, so a same-seed rerun commits the identical sequence. *)
  List.iter
    (fun spec ->
      let a = Runner.run spec and b = Runner.run spec in
      let label = Runner.protocol_label spec.protocol in
      Alcotest.(check int) (label ^ ": same fingerprint") a.commit_fingerprint
        b.commit_fingerprint;
      Alcotest.(check int) (label ^ ": same committed count") a.committed_txns
        b.committed_txns;
      Alcotest.(check (float 1e-9)) (label ^ ": same latency") a.latency_mean_ms
        b.latency_mean_ms;
      Alcotest.(check int) (label ^ ": same bytes") a.bytes_total b.bytes_total)
    [ base_spec; { base_spec with protocol = Runner.Sparse { k = 3 } } ]

let test_runner_seed_sensitivity () =
  let a = Runner.run base_spec in
  let b = Runner.run { base_spec with seed = 999L } in
  (* jitter differs, so traffic timing (and usually byte totals) differ *)
  Alcotest.(check bool) "different runs" true
    (a.bytes_total <> b.bytes_total || a.committed_txns <> b.committed_txns)

let prop_runner_zero_load =
  QCheck.Test.make ~name:"zero load commits zero transactions" ~count:1 QCheck.unit
    (fun () ->
      let r =
        Runner.run { base_spec with txns_per_proposal = 0; duration = Time.s 3. }
      in
      r.committed_txns = 0 && r.agreement)

let suites =
  [
    ( "smr.mempool",
      [
        Alcotest.test_case "fifo" `Quick test_mempool_fifo;
        Alcotest.test_case "capacity" `Quick test_mempool_capacity;
      ] );
    ( "smr.execution",
      [
        Alcotest.test_case "deterministic" `Quick test_execution_deterministic;
        Alcotest.test_case "order sensitive" `Quick test_execution_order_sensitive;
        Alcotest.test_case "skip equivalent chain" `Quick test_execution_skip_equivalent_chain;
        Alcotest.test_case "responses" `Quick test_execution_responses;
      ] );
    ( "smr.persist",
      [
        Alcotest.test_case "write latency" `Quick test_persist_write_latency;
        Alcotest.test_case "fifo queue" `Quick test_persist_fifo_queue;
        Alcotest.test_case "metadata only" `Quick test_persist_metadata_only;
      ] );
    ( "smr.client",
      [
        Alcotest.test_case "fc+1 completion" `Quick test_client_fc1_completion;
        Alcotest.test_case "mismatched responses" `Quick test_client_mismatched_responses;
        Alcotest.test_case "outsiders ignored" `Quick test_client_ignores_outsiders;
        Alcotest.test_case "unique ids" `Quick test_client_unique_ids;
      ] );
    ( "smr.node",
      [
        Alcotest.test_case "executes submitted txns" `Slow test_node_executes_submitted_txns;
        Alcotest.test_case "single-clan execution split" `Slow test_node_single_clan_execution_split;
        Alcotest.test_case "multi-clan execution split" `Slow test_node_multi_clan_execution_split;
        Alcotest.test_case "txn receipts" `Slow test_node_txn_receipts;
      ] );
    ( "smr.ledger",
      [
        Alcotest.test_case "divergence the shortest-ledger rule misses" `Quick
          test_ledger_divergence;
        Alcotest.test_case "unchecked and replayed ledgers" `Quick
          test_ledger_unchecked_and_replayed;
      ] );
    ( "smr.runner",
      [
        Alcotest.test_case "full protocol" `Slow test_runner_full;
        Alcotest.test_case "single-clan traffic" `Slow test_runner_single_clan_less_traffic;
        Alcotest.test_case "multi-clan" `Slow test_runner_multi_clan;
        Alcotest.test_case "sparse edges" `Slow test_runner_sparse;
        Alcotest.test_case "sparse k=all == dense" `Slow
          test_runner_sparse_all_parents_matches_dense;
        Alcotest.test_case "crash faults" `Slow test_runner_crash_faults;
        Alcotest.test_case "crashed replica is silent" `Slow
          test_runner_crashed_replica_is_silent;
        Alcotest.test_case "topology matters" `Slow test_runner_topology_matters;
        Alcotest.test_case "deterministic" `Slow test_runner_deterministic;
        Alcotest.test_case "seed sensitivity" `Slow test_runner_seed_sensitivity;
        qtest prop_runner_zero_load;
      ] );
  ]
