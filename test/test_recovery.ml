(* Crash–recovery subsystem: WAL persistence, state sync, restart harness
   (docs/RECOVERY.md), plus the satellite regressions that rode along with
   it (client id packing / eviction, mempool FIFO, store horizon). *)

open Clanbft
open Clanbft.Sim
open Clanbft.Crypto
module Store = Dag_store

(* ------------------------------------------------------------------ *)
(* Persist: write-ahead log *)

let wal_vertex ~round ~source =
  Persist.Vertex
    (Vertex.make ~round ~source ~block_digest:Digest32.zero ~strong_edges:[||]
       ~weak_edges:[||] ())

let wal_block ~round ~proposer = Persist.Block (Block.make ~proposer ~round ~txns:[||])

let wal_records p =
  let seen = ref [] in
  Persist.wal_iter p (fun ~size r -> seen := (size, r) :: !seen);
  List.rev !seen

let test_wal_round_trip () =
  let engine = Engine.create () in
  let p = Persist.create ~engine ~n:4 () in
  let appended =
    [ (300, wal_vertex ~round:1 ~source:0); (310, wal_vertex ~round:1 ~source:2);
      (12, wal_block ~round:1 ~proposer:0); (0, Persist.Proposed 1) ]
  in
  List.iter (fun (size, r) -> Persist.wal_append p ~size r) appended;
  Alcotest.(check int) "nothing durable yet" 0 (Persist.wal_size p);
  Engine.run engine;
  Alcotest.(check int) "all records durable" 4 (Persist.wal_size p);
  Alcotest.(check int) "charged the stated sizes" 622 (Persist.bytes_written p);
  let replayed = wal_records p in
  Alcotest.(check (list int)) "sizes replay in append order" (List.map fst appended)
    (List.map fst replayed);
  Alcotest.(check bool) "the appended values themselves, in append order" true
    (List.for_all2 (fun (_, a) (_, b) -> a == b) appended replayed)

let test_wal_dedup () =
  let engine = Engine.create () in
  let p = Persist.create ~engine ~n:4 () in
  Persist.wal_append p ~size:100 (wal_vertex ~round:1 ~source:0);
  (* duplicate slot while the first append is still in flight *)
  Persist.wal_append p ~size:100 (wal_vertex ~round:1 ~source:0);
  Engine.run engine;
  (* duplicate slot after it became durable *)
  Persist.wal_append p ~size:100 (wal_vertex ~round:1 ~source:0);
  Engine.run engine;
  Alcotest.(check int) "one record" 1 (Persist.wal_size p);
  Alcotest.(check int) "one charge" 100 (Persist.bytes_written p);
  (* the slot includes the kind: same (round, source), other kinds *)
  Persist.wal_append p ~size:12 (wal_block ~round:1 ~proposer:0);
  Persist.wal_append p ~size:0 (Persist.Proposed 1);
  Engine.run engine;
  Alcotest.(check int) "kinds do not collide" 3 (Persist.wal_size p)

let test_wal_crash_drops_pending () =
  let engine = Engine.create () in
  let p = Persist.create ~engine ~n:4 () in
  Persist.wal_append p ~size:10 (wal_vertex ~round:1 ~source:0);
  Engine.run engine;
  Persist.wal_append p ~size:10 (wal_vertex ~round:1 ~source:1);
  (* the process dies before (1, 1) hits disk *)
  Persist.crash p;
  Engine.run engine;
  Alcotest.(check int) "only the durable prefix survives" 1 (Persist.wal_size p);
  (* a lost pending append may be re-journalled after the restart *)
  Persist.wal_append p ~size:20 (wal_vertex ~round:1 ~source:1);
  Engine.run engine;
  Alcotest.(check int) "re-append lands" 2 (Persist.wal_size p);
  Alcotest.(check (list int)) "charged at the re-append's size" [ 10; 20 ]
    (List.map fst (wal_records p))

(* The log's own words per record, at the shape a replica journals: each
   round, n vertices, n blocks and one proposal marker. The words reachable
   from its tables, less those of the appended values, are its bookkeeping:
   an array entry and a size per record (up to twice that while the arrays
   fill after doubling) and a share of the round's row of slot flags. *)
let test_wal_bookkeeping () =
  let n = 16 and rounds = 100 in
  let engine = Engine.create () in
  let p = Persist.create ~engine ~n () in
  let appended = ref [] in
  let append ~size r =
    appended := r :: !appended;
    Persist.wal_append p ~size r
  in
  for round = 1 to rounds do
    for source = 0 to n - 1 do
      append ~size:300 (wal_vertex ~round ~source);
      append ~size:1000 (wal_block ~round ~proposer:source)
    done;
    append ~size:0 (Persist.Proposed round)
  done;
  Engine.run engine;
  let records = rounds * ((2 * n) + 1) in
  Alcotest.(check int) "all durable" records (Persist.wal_size p);
  (* Words reachable from a list of roots, less the array that gathers them. *)
  let reachable roots =
    Obj.reachable_words (Obj.repr (Array.of_list roots)) - (List.length roots + 1)
  in
  let own = reachable (Persist.heap_roots p) - reachable (List.map Obj.repr !appended) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words over %d records: at most 4 a record" own records)
    true
    (own <= 4 * records)

(* ------------------------------------------------------------------ *)
(* Codec: sync messages *)

let sync_round_trip msg =
  let n = 8 in
  let wire = Codec.encode ~n msg in
  Alcotest.(check int) "wire size" (Msg.wire_size ~n msg) (String.length wire);
  Alcotest.(check bool) "round-trip" true (Codec.decode ~n wire = msg)

let test_codec_sync_request () = sync_round_trip (Msg.Sync_request { from_round = 5 })

let test_codec_sync_reply () =
  sync_round_trip (Msg.Sync_reply { floor = 3; highest = 17 });
  (* highest = -1 (empty store) is biased +1 on the wire: u32 stays valid *)
  sync_round_trip (Msg.Sync_reply { floor = 0; highest = -1 })

(* ------------------------------------------------------------------ *)
(* Trace: recovery events *)

let test_trace_recovery_round_trip () =
  let r = { Trace.ts = 123; ev = Trace.Recovery { node = 3; stage = "caught_up"; round = 42 } } in
  Alcotest.(check bool) "jsonl round-trip" true
    (Trace.of_jsonl_line (Trace.jsonl_of_record r) = Some r)

(* ------------------------------------------------------------------ *)
(* Client: id packing + eviction *)

let test_client_id_guard () =
  let engine = Engine.create () in
  let config = Config.make ~n:4 Config.Full in
  Alcotest.check_raises "negative id"
    (Invalid_argument "Client.create: id out of range (22 bits)") (fun () ->
      ignore (Client.create ~engine ~config ~id:(-1) ()));
  Alcotest.check_raises "id beyond 22 bits"
    (Invalid_argument "Client.create: id out of range (22 bits)") (fun () ->
      ignore (Client.create ~engine ~config ~id:(1 lsl 22) ()));
  (* the largest id still packs without touching the sign bit *)
  let c = Client.create ~engine ~config ~id:((1 lsl 22) - 1) () in
  let t = Client.make_txn c () in
  Alcotest.(check bool) "packed id positive" true (t.Transaction.id > 0)

let test_client_eviction () =
  let engine = Engine.create () in
  let config = Config.make ~n:10 (Config.Single_clan [| 0; 2; 4; 6; 8 |]) in
  let c = Client.create ~engine ~config ~id:1 () in
  let txn = Client.make_txn c () in
  Client.track c txn ~clan:0;
  (* re-tracking the same transaction must not double-count *)
  Client.track c txn ~clan:0;
  Alcotest.(check int) "pending counts distinct txns" 1 (Client.pending c);
  let digest = Digest32.hash_string "x" in
  Client.deliver_response c ~executor:0 txn digest;
  Client.deliver_response c ~executor:2 txn digest;
  Client.deliver_response c ~executor:4 txn digest;
  Alcotest.(check int) "completed" 1 (Client.completed c);
  Alcotest.(check int) "evicted from pending" 0 (Client.pending c);
  (* stray late responses to the evicted entry are no-ops *)
  Client.deliver_response c ~executor:6 txn digest;
  Alcotest.(check int) "still one completion" 1 (Client.completed c);
  Alcotest.(check int) "still no pending" 0 (Client.pending c)

(* ------------------------------------------------------------------ *)
(* Mempool: FIFO across chunked takes *)

let test_mempool_fifo_chunked () =
  let m = Mempool.create () in
  for i = 1 to 100 do
    ignore (Mempool.submit m (Transaction.make ~id:i ~client:0 ~created_at:0 ()))
  done;
  let out = ref [] in
  let rec drain () =
    match Mempool.take m ~max:7 with
    | [||] -> ()
    | batch ->
        Array.iter (fun (t : Transaction.t) -> out := t.id :: !out) batch;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "global fifo order" (List.init 100 (fun i -> i + 1))
    (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Store: GC-horizon boundary *)

let mk_vertex ~round ~source ~strong =
  Vertex.make ~round ~source ~block_digest:Digest32.zero
    ~strong_edges:(Array.of_list (List.map Vertex.ref_of strong))
    ~weak_edges:[||] ()

let test_store_horizon_boundary () =
  let s = Store.create ~n:4 in
  let r0 = List.init 4 (fun i -> mk_vertex ~round:0 ~source:i ~strong:[]) in
  List.iter (Store.add s) r0;
  let r1 = List.init 4 (fun i -> mk_vertex ~round:1 ~source:i ~strong:r0) in
  List.iter (Store.add s) r1;
  Store.prune_below s ~round:1;
  Alcotest.(check int) "floor" 1 (Store.floor s);
  Alcotest.(check bool) "round 0 gone" false (Store.mem s ~round:0 ~source:0);
  Alcotest.(check bool) "round 1 kept (boundary is inclusive)" true
    (Store.mem s ~round:1 ~source:0);
  (* parents below the horizon are never reported missing: a vertex whose
     parents were GC'd must remain insertable after a snapshot join *)
  let v2 = mk_vertex ~round:2 ~source:0 ~strong:r1 in
  Alcotest.(check int) "in-store parents resolve" 0
    (List.length (Store.missing_parents s v2));
  Store.prune_below s ~round:2;
  Alcotest.(check int) "pruned parents not demanded" 0
    (List.length (Store.missing_parents s v2));
  Store.add s v2;
  Alcotest.(check bool) "vertex above horizon inserts" true
    (Store.mem s ~round:2 ~source:0);
  (* pruning is monotone: asking to prune below the current floor is a no-op *)
  Store.prune_below s ~round:1;
  Alcotest.(check int) "floor monotone" 2 (Store.floor s)

(* ------------------------------------------------------------------ *)
(* Rbc: late joiner re-proves a finished instance *)

let run_late_joiner protocol =
  let n = 4 in
  (* node 3 is down — every message to it is lost — while the instance
     completes among 0..2 *)
  let plan = Result.get_ok (Faults.plan_of_specs ~rules:[ "drop:dst=3:until=1s" ] ()) in
  let w =
    Rbc_world.create ~topology:(Topology.uniform ~n ~one_way_ms:5.0)
      ~config:{ Net.default_config with jitter = 0.0 } ~seed:9L ~plan protocol
  in
  let delivered i = List.exists (fun (_, me, _, _, _) -> me = i) (Rbc_world.deliveries w) in
  Rbc.broadcast (Rbc_world.node w 0) ~round:1 "payload";
  Engine.run w.engine;
  Alcotest.(check bool) "live peers delivered" true
    (delivered 0 && delivered 1 && delivered 2);
  Alcotest.(check bool) "joiner missed the instance" false (delivered 3);
  (* the node comes back with no protocol state and asks peers to re-prove *)
  let n3 = Rbc_world.node w 3 in
  Engine.schedule_at w.engine (Time.s 1.) (fun () -> Rbc.request_sync n3 ~sender:0 ~round:1);
  Engine.run w.engine;
  Alcotest.(check bool) "joiner delivered after sync" true (delivered 3);
  match Rbc.delivered n3 ~sender:0 ~round:1 with
  | Some (Rbc.Value v) -> Alcotest.(check string) "full value recovered" "payload" v
  | _ -> Alcotest.fail "expected a full-value delivery"

let test_rbc_sync_bracha () = run_late_joiner Rbc.Bracha
let test_rbc_sync_signed () = run_late_joiner Rbc.Signed_two_round

(* ------------------------------------------------------------------ *)
(* Runner: end-to-end crash–recovery *)

let recovery_spec =
  {
    Runner.default_spec with
    n = 16;
    protocol = Runner.Single_clan { nc = 11 };
    txns_per_proposal = 100;
    topology = `Uniform 10.0;
    duration = Time.s 12.;
    warmup = Time.s 2.;
    restarts = [ { Faults.node = 3; crash_at = Time.s 4.; recover_at = Time.s 8. } ];
  }

(* The WAL stores values and charges their wire size: check that every
   record the restarted replica replays still round-trips through the
   codec at exactly the bytes it was charged, and that no (kind, round,
   source) slot is journalled twice. *)
let audit_wal ~n p =
  let records = ref 0 in
  let slots = Hashtbl.create 64 in
  Persist.wal_iter p (fun ~size record ->
      incr records;
      let slot =
        match record with
        | Persist.Vertex v -> ("vertex", v.round, v.source)
        | Persist.Block b -> ("block", b.round, b.proposer)
        | Persist.Proposed round -> ("proposal marker", round, 0)
      in
      if Hashtbl.mem slots slot then begin
        let kind, round, source = slot in
        Alcotest.failf "%s (%d, %d) journalled twice" kind round source
      end;
      Hashtbl.add slots slot ();
      let encoded =
        match record with
        | Persist.Vertex v ->
            let enc = Codec.encode_vertex ~n v in
            if not (Test_types.same_vertex ~n v (Codec.decode_vertex ~n ~compact:v.compact enc))
            then Alcotest.failf "vertex (%d, %d) does not round-trip" v.round v.source;
            String.length enc
        | Persist.Block b ->
            let enc = Codec.encode_block b in
            if Codec.decode_block enc <> b then
              Alcotest.failf "block (%d, %d) does not round-trip" b.round b.proposer;
            String.length enc
        | Persist.Proposed _ -> 0
      in
      Alcotest.(check int) "charged = encoded length" encoded size);
  Alcotest.(check bool) (Printf.sprintf "WAL replayed records (%d)" !records) true (!records > 0)

let test_recovery_flagship () =
  let obs = Obs.metrics_only () in
  (* The census is measured only under the profiler. *)
  Prof.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () -> Prof.set_enabled false)
      (fun () ->
        Runner.run
          ~on_wal:(fun node p -> if node = 3 then audit_wal ~n:recovery_spec.n p)
          { recovery_spec with obs = Some obs })
  in
  Alcotest.(check bool) "agreement" true r.agreement;
  (* The WAL row holds its own tables only: the logged values are charged
     to the consensus rows first, so the entry stays far below the heap
     the run reached. *)
  let wal = List.assoc "wal" r.census in
  let top = (Gc.quick_stat ()).top_heap_words in
  Alcotest.(check bool) (Printf.sprintf "0 < wal census %d < top heap %d words" wal top) true
    (0 < wal && wal < top);
  (match r.post_recovery_commits with
  | [ (3, c) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "recovered replica commits again (%d)" c)
        true (c > 0)
  | _ -> Alcotest.fail "expected exactly one restart entry");
  let fetched =
    Metrics.fold obs.Obs.metrics ~init:0 ~f:(fun acc ~name ~labels:_ v ->
        match (name, v) with
        | "recovery_rounds_fetched", Metrics.Counter_v c -> acc + c
        | _ -> acc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "state sync fetched rounds (%d)" fetched)
    true (fetched > 0)

let test_recovery_replayed_blocks () =
  (* Every round is kept, so the restarted replica's round-0 slots are the
     ones it replayed from its journal: each holds the block its vertex
     names, and so does every committed slot it holds a block for. *)
  let n = 7 in
  let engine = Engine.create () in
  let w =
    Smr_world.create ~engine ~topology:(Topology.uniform ~n ~one_way_ms:10.)
      ~net:{ Net.default_config with jitter = 0.0 } ~seed:5L
      ~params:{ Sailfish.round_timeout = Time.ms 200.; gc_depth = 1_000_000 }
      ~restarts:[ { Faults.node = 3; crash_at = Time.s 1.; recover_at = Time.s 2. } ]
      ~generate:(Test_consensus.closed_loop engine ~load:5) (Config.make ~n Config.Full)
  in
  Smr_world.start w;
  Engine.run ~until:(Time.s 4.) engine;
  audit_wal ~n w.persist.(3);
  let c = Node.consensus (Smr_world.node w 3) in
  let stored ~round ~source =
    match (Sailfish.vertex_of c ~round ~source, Sailfish.block_of c ~round ~source) with
    | Some v, Some b ->
        if not (Digest32.equal (Block.digest b) v.block_digest) then
          Alcotest.failf "slot (%d, %d) stores a block its vertex does not name" round source;
        true
    | _ -> false
  in
  for source = 0 to n - 1 do
    if not (stored ~round:0 ~source) then
      Alcotest.failf "replayed slot (0, %d) lost its block" source
  done;
  let committed =
    Array.fold_left
      (fun acc (round, source) -> if stored ~round ~source then acc + 1 else acc)
      0 (Smr_world.Ledger.sequence w.ledger 3)
  in
  Alcotest.(check bool) (Printf.sprintf "committed slots with blocks (%d)" committed) true
    (committed > 100)

let test_recovery_deterministic () =
  let a = Runner.run recovery_spec and b = Runner.run recovery_spec in
  Alcotest.(check int) "same fingerprint" a.commit_fingerprint b.commit_fingerprint;
  Alcotest.(check int) "same committed count" a.committed_txns b.committed_txns;
  Alcotest.(check (list (pair int int)))
    "same post-recovery progress" a.post_recovery_commits b.post_recovery_commits

let test_recovery_prefix_vs_benign () =
  (* persistence on in both runs, so the two simulations are event-identical
     until the crash fires: every commit made before [crash_at] must land in
     both chains, i.e. the chained hashes share a non-trivial prefix. *)
  let benign = Runner.run { recovery_spec with restarts = []; persist = true } in
  let crashed = Runner.run recovery_spec in
  let a = benign.commit_chain and b = crashed.commit_chain in
  let k = min (Array.length a) (Array.length b) in
  let common = ref 0 in
  (try
     for i = 0 to k - 1 do
       if a.(i) = b.(i) then incr common else raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool)
    (Printf.sprintf "common commit prefix (%d of %d/%d)" !common (Array.length a)
       (Array.length b))
    true
    (!common > 0)

let test_recovery_snapshot_join () =
  (* A tight GC horizon and a long outage: WAL replay alone cannot reconnect
     to the live DAG, so the replica adopts a peer floor (snapshot join) and
     still makes post-recovery progress. *)
  let obs = Obs.create () in
  let spec =
    {
      recovery_spec with
      n = 10;
      protocol = Runner.Single_clan { nc = 5 };
      params = { Sailfish.default_params with gc_depth = 8 };
      restarts = [ { Faults.node = 3; crash_at = Time.s 2.; recover_at = Time.s 8. } ];
      obs = Some obs;
    }
  in
  let r = Runner.run spec in
  Alcotest.(check bool) "agreement among included replicas" true r.agreement;
  let saw_snapshot = ref false in
  Trace.iter obs.Obs.trace (fun { Trace.ev; _ } ->
      match ev with
      | Trace.Recovery { stage = "snapshot_join"; node = 3; _ } -> saw_snapshot := true
      | _ -> ());
  Alcotest.(check bool) "snapshot-joined past the GC horizon" true !saw_snapshot;
  match r.post_recovery_commits with
  | [ (3, c) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "post-recovery progress (%d)" c)
        true (c > 0)
  | _ -> Alcotest.fail "expected exactly one restart entry"

let test_recovery_sparse () =
  (* Crash-recovery over sparse edges: the recovering replica must rebuild a
     DAG whose vertices carry only O(k) parents, so reconnection goes through
     the transitive-coverage rule rather than a dense 2f+1 parent set. *)
  let r =
    Runner.run
      {
        recovery_spec with
        n = 10;
        protocol = Runner.Sparse { k = 3 };
        restarts =
          [ { Faults.node = 3; crash_at = Time.s 4.; recover_at = Time.s 8. } ];
      }
  in
  Alcotest.(check bool) "agreement" true r.agreement;
  match r.post_recovery_commits with
  | [ (3, c) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "recovered replica commits again (%d)" c)
        true (c > 0)
  | _ -> Alcotest.fail "expected exactly one restart entry"

let test_recovery_during_partition () =
  (* The replica recovers while still cut off from every peer: sync requests
     go nowhere until the partition heals at 6 s, exercising the capped
     retry backoff; it must still catch up and commit afterwards. *)
  let others = String.concat "," (List.filter_map
      (fun i -> if i = 3 then None else Some (string_of_int i))
      (List.init 10 Fun.id))
  in
  let plan =
    match
      Faults.plan_of_specs ~rules:[]
        ~partitions:[ Printf.sprintf "3|%s:until=6s" others ]
        ~mutes:[] ()
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let spec =
    {
      recovery_spec with
      n = 10;
      protocol = Runner.Single_clan { nc = 5 };
      fault_plan = plan;
      restarts = [ { Faults.node = 3; crash_at = Time.s 2.; recover_at = Time.s 4. } ];
    }
  in
  let r = Runner.run spec in
  Alcotest.(check bool) "agreement" true r.agreement;
  match r.post_recovery_commits with
  | [ (3, c) ] ->
      Alcotest.(check bool)
        (Printf.sprintf "commits after the partition heals (%d)" c)
        true (c > 0)
  | _ -> Alcotest.fail "expected exactly one restart entry"

(* ------------------------------------------------------------------ *)
(* Faults: restart DSL *)

let test_restart_dsl () =
  (match Faults.restart_of_string "3@4s:8s" with
  | Ok r ->
      Alcotest.(check int) "node" 3 r.Faults.node;
      Alcotest.(check int) "crash" (Time.s 4.) r.Faults.crash_at;
      Alcotest.(check int) "recover" (Time.s 8.) r.Faults.recover_at
  | Error e -> Alcotest.fail e);
  let bad s =
    match Faults.restart_of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
    | Error _ -> ()
  in
  bad "3@8s:4s" (* recovery before crash *);
  bad "-1@4s:8s";
  bad "3@4s" (* missing recovery time *);
  bad "nonsense"

let suites =
  [
    ( "recovery.wal",
      [
        Alcotest.test_case "round trip" `Quick test_wal_round_trip;
        Alcotest.test_case "dedup" `Quick test_wal_dedup;
        Alcotest.test_case "crash drops pending" `Quick test_wal_crash_drops_pending;
        Alcotest.test_case "bookkeeping per record" `Quick test_wal_bookkeeping;
      ] );
    ( "recovery.codec",
      [
        Alcotest.test_case "sync_request" `Quick test_codec_sync_request;
        Alcotest.test_case "sync_reply" `Quick test_codec_sync_reply;
        Alcotest.test_case "trace event" `Quick test_trace_recovery_round_trip;
      ] );
    ( "recovery.satellites",
      [
        Alcotest.test_case "client id guard" `Quick test_client_id_guard;
        Alcotest.test_case "client eviction" `Quick test_client_eviction;
        Alcotest.test_case "mempool fifo chunked" `Quick test_mempool_fifo_chunked;
        Alcotest.test_case "store horizon boundary" `Quick test_store_horizon_boundary;
        Alcotest.test_case "restart DSL" `Quick test_restart_dsl;
      ] );
    ( "recovery.rbc",
      [
        Alcotest.test_case "late joiner (bracha)" `Quick test_rbc_sync_bracha;
        Alcotest.test_case "late joiner (signed)" `Quick test_rbc_sync_signed;
      ] );
    ( "recovery.runner",
      [
        Alcotest.test_case "crash and recover" `Slow test_recovery_flagship;
        Alcotest.test_case "deterministic" `Slow test_recovery_deterministic;
        Alcotest.test_case "replayed blocks match their vertices" `Slow
          test_recovery_replayed_blocks;
        Alcotest.test_case "prefix vs benign run" `Slow test_recovery_prefix_vs_benign;
        Alcotest.test_case "snapshot join past GC" `Slow test_recovery_snapshot_join;
        Alcotest.test_case "restart during partition" `Slow test_recovery_during_partition;
        Alcotest.test_case "sparse crash and recover" `Slow test_recovery_sparse;
      ] );
  ]
