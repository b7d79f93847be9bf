open Clanbft
open Clanbft.Sim
module Json = Util.Json

(* ------------------------------------------------------------------ *)
(* Trace sink mechanics *)

let test_sink_basics () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null ~ts:1 (Trace.Vertex_deliver { node = 0; round = 1; source = 2 });
  Alcotest.(check int) "null records nothing" 0 (Trace.length Trace.null);
  let tr = Trace.create () in
  Alcotest.(check bool) "sink enabled" true (Trace.enabled tr);
  for i = 1 to 2000 do
    Trace.emit tr ~ts:i (Trace.Vertex_deliver { node = 0; round = i; source = 0 })
  done;
  Alcotest.(check int) "grows past initial capacity" 2000 (Trace.length tr);
  let seen = ref 0 in
  Trace.iter tr (fun r ->
      incr seen;
      Alcotest.(check int) "emission order" !seen r.Trace.ts);
  Alcotest.(check int) "iter visits all" 2000 !seen

(* ------------------------------------------------------------------ *)
(* JSONL round-trip: every variant survives writer -> parser exactly *)

let sample_records =
  [
    { Trace.ts = 17; ev = Trace.Msg_recv { src = 3; dst = 4; kind = "echo_cert"; bytes = 96 } };
    { Trace.ts = 21; ev = Trace.Msg_bcast { src = 5; kind = "echo"; bytes = 150; count = 149 } };
    {
      Trace.ts = 100;
      ev = Trace.Uplink { node = 7; kind = "vertex"; bytes = 640; enqueued = 100; start = 250; depart = 252 };
    };
    { Trace.ts = 2; ev = Trace.Rbc_phase { node = 2; sender = 2; round = 9; phase = Trace.Propose } };
    { Trace.ts = 5; ev = Trace.Rbc_phase { node = 1; sender = 2; round = 9; phase = Trace.Val } };
    { Trace.ts = 6; ev = Trace.Rbc_phase { node = 1; sender = 2; round = 9; phase = Trace.Pull_retry } };
    { Trace.ts = 8; ev = Trace.Rbc_phase { node = 1; sender = 2; round = 9; phase = Trace.Echo } };
    { Trace.ts = 7; ev = Trace.Vertex_deliver { node = 0; round = 4; source = 11 } };
    { Trace.ts = 8; ev = Trace.Vertex_commit { node = 0; round = 3; source = 2; leader_round = 4 } };
    { Trace.ts = 9; ev = Trace.Fault_fire { rule = -1; action = "mute"; kind = "ready"; src = 5; dst = 6 } };
  ]

let test_jsonl_roundtrip () =
  List.iter
    (fun r ->
      let line = Trace.jsonl_of_record r in
      match Trace.of_jsonl_line line with
      | None -> Alcotest.failf "unparseable: %s" line
      | Some r' ->
          Alcotest.(check bool) (Printf.sprintf "round-trip %s" line) true (r = r'))
    sample_records;
  (* Escaping: kinds with JSON-hostile characters survive the trip. *)
  let hostile =
    { Trace.ts = 1; ev = Trace.Msg_recv { src = 0; dst = 1; kind = "a\"b\\c\nd"; bytes = 1 } }
  in
  (match Trace.of_jsonl_line (Trace.jsonl_of_record hostile) with
  | Some r' -> Alcotest.(check bool) "escaped kind" true (hostile = r')
  | None -> Alcotest.fail "hostile kind did not parse");
  Alcotest.(check bool) "garbage rejected" true
    (Trace.of_jsonl_line "{\"ts\":1,\"type\":\"nonsense\"}" = None);
  Alcotest.(check bool) "non-json rejected" true (Trace.of_jsonl_line "hello" = None);
  (* Malformed \u escapes are rejected, not raised. *)
  List.iter
    (fun esc ->
      let line =
        Printf.sprintf {|{"ts":1,"type":"msg_recv","src":0,"dst":1,"kind":"%s","bytes":1}|} esc
      in
      Alcotest.(check bool) ("rejects " ^ esc) true (Trace.of_jsonl_line line = None))
    [ {|\uzz|}; {|\uffff|}; {|\u12|} ]

(* Random records, and random damage to valid lines: the parser never
   raises, and every record the writer emits reads back exactly. *)
let gen_record =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let phases =
    Trace.[ Propose; Val; Echo; Ready; Cert; Deliver; Pull_retry ]
  in
  let ev =
    oneof
      [
        map3 (fun (src, dst) kind bytes -> Trace.Msg_recv { src; dst; kind; bytes })
          (pair int int) str int;
        map3 (fun src kind (bytes, count) -> Trace.Msg_bcast { src; kind; bytes; count })
          int str (pair int int);
        map3
          (fun (node, kind) (bytes, enqueued) (start, depart) ->
            Trace.Uplink { node; kind; bytes; enqueued; start; depart })
          (pair int str) (pair int int) (pair int int);
        map3 (fun (node, sender) round phase -> Trace.Rbc_phase { node; sender; round; phase })
          (pair int int) int (oneofl phases);
        map3 (fun node round source -> Trace.Vertex_deliver { node; round; source }) int int int;
        map3
          (fun (node, round) source leader_round ->
            Trace.Vertex_commit { node; round; source; leader_round })
          (pair int int) int int;
        map3
          (fun (rule, action) kind (src, dst) -> Trace.Fault_fire { rule; action; kind; src; dst })
          (pair int str) str (pair int int);
        map3 (fun node stage round -> Trace.Recovery { node; stage; round }) int str int;
      ]
  in
  map2 (fun ts ev -> { Trace.ts; ev }) int ev

let arb_record =
  QCheck.make ~print:Trace.jsonl_of_record gen_record

let prop_jsonl_roundtrip =
  QCheck.Test.make ~name:"jsonl records round-trip" ~count:1000 arb_record
    (fun r -> Trace.of_jsonl_line (Trace.jsonl_of_record r) = Some r)

let prop_jsonl_total =
  let damaged =
    let open QCheck.Gen in
    let line = map Trace.jsonl_of_record gen_record in
    oneof
      [
        string;
        map2 (fun l k -> String.sub l 0 (k mod (String.length l + 1))) line nat;
        map3
          (fun l k c ->
            let b = Bytes.of_string l in
            Bytes.set b (k mod Bytes.length b) c;
            Bytes.to_string b)
          line nat char;
      ]
  in
  QCheck.Test.make ~name:"jsonl parser never raises" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") damaged)
    (fun line ->
      ignore (Trace.of_jsonl_line line);
      true)

let test_jsonl_file_roundtrip () =
  let tr = Trace.create () in
  List.iter (fun { Trace.ts; ev } -> Trace.emit tr ~ts ev) sample_records;
  let path = Filename.temp_file "clanbft_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_jsonl tr path;
      let ic = open_in path in
      let back = ref [] in
      (try
         while true do
           match Trace.of_jsonl_line (input_line ic) with
           | Some r -> back := r :: !back
           | None -> Alcotest.fail "file line did not parse"
         done
       with End_of_file -> close_in ic);
      Alcotest.(check bool) "file round-trip" true (List.rev !back = sample_records))

let test_stream_sink () =
  let path = Filename.temp_file "clanbft_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let tr = Trace.stream oc in
      Alcotest.(check bool) "stream enabled" true (Trace.enabled tr);
      List.iter (fun { Trace.ts; ev } -> Trace.emit tr ~ts ev) sample_records;
      Alcotest.(check int) "lines counted" (List.length sample_records)
        (Trace.length tr);
      (* Nothing is retained: buffered exports refuse, iter sees nothing. *)
      Alcotest.check_raises "chrome export refused"
        (Invalid_argument
           "Trace.write_chrome: streaming sinks write at emission time and \
            retain nothing to export") (fun () ->
          Trace.write_chrome tr "/dev/null");
      let visited = ref 0 in
      Trace.iter tr (fun _ -> incr visited);
      Alcotest.(check int) "iter sees nothing" 0 !visited;
      close_out oc;
      let ic = open_in path in
      let back = ref [] in
      (try
         while true do
           match Trace.of_jsonl_line (input_line ic) with
           | Some r -> back := r :: !back
           | None -> Alcotest.fail "streamed line did not parse"
         done
       with End_of_file -> close_in ic);
      Alcotest.(check bool) "stream round-trip" true
        (List.rev !back = sample_records))

let test_chrome_export () =
  let tr = Trace.create () in
  List.iter (fun { Trace.ts; ev } -> Trace.emit tr ~ts ev) sample_records;
  let path = Filename.temp_file "clanbft_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write_chrome tr path;
      let ic = open_in path in
      let len = in_channel_length ic in
      let doc = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "traceEvents document" true
        (String.length doc > 2
        && String.sub doc 0 15 = "{\"traceEvents\":"
        && doc.[String.length doc - 1] = '}');
      (* The uplink span renders as a complete event with its duration. *)
      let contains needle =
        let n = String.length needle and h = String.length doc in
        let rec go i = i + n <= h && (String.sub doc i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "X span present" true (contains "\"ph\":\"X\"");
      Alcotest.(check bool) "span duration" true (contains "\"dur\":2");
      (* The VAL -> ECHO pair on instance (1,2,9) renders as an RBC phase
         span of 3 µs; the interleaved Pull_retry is off the chain and
         stays an instant. *)
      Alcotest.(check bool) "rbc val span" true (contains "\"name\":\"rbc val r9/s2\"");
      Alcotest.(check bool) "rbc span duration" true (contains "\"dur\":3");
      Alcotest.(check bool) "pull stays instant" true
        (contains "\"name\":\"rbc pull_retry r9/s2\",\"cat\":\"rbc\",\"ph\":\"i\"");
      Alcotest.(check bool) "process metadata" true (contains "process_name"))

(* ------------------------------------------------------------------ *)
(* Metric registry *)

let test_registry () =
  let reg = Metrics.create_registry () in
  let c = Metrics.counter reg ~labels:[ ("node", "3") ] "pulls" in
  Metrics.incr c;
  Metrics.add c 4;
  (* Idempotent resolution, label order irrelevant. *)
  let c' = Metrics.counter reg ~labels:[ ("node", "3") ] "pulls" in
  Metrics.incr c';
  Alcotest.(check int) "shared instrument" 6 (Metrics.counter_value c);
  (match Metrics.find reg ~labels:[ ("node", "3") ] "pulls" with
  | Some (Metrics.Counter_v 6) -> ()
  | _ -> Alcotest.fail "find: wrong value");
  Alcotest.(check bool) "find misses" true (Metrics.find reg "absent" = None);
  (* Same name, different kind: refused. *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: pulls already registered as a counter, not a gauge")
    (fun () -> ignore (Metrics.gauge reg ~labels:[ ("node", "3") ] "pulls"));
  let h = Metrics.histogram reg ~buckets:[| 1.0; 10.0 |] "lat" in
  Metrics.observe h 0.5;
  Metrics.observe h 5.0;
  Metrics.observe h 100.0;
  Alcotest.(check int) "histogram count" 3 (Util.Stats.Histogram.count (Metrics.hist h));
  let g = Metrics.gauge reg "depth" in
  Metrics.set g 2.5;
  (* An infinite gauge has no JSON number: it exports as null. *)
  Metrics.set (Metrics.gauge reg "ratio") Float.infinity;
  (* fold visits every instrument in sorted order. *)
  let names =
    Metrics.fold reg ~init:[] ~f:(fun acc ~name ~labels:_ _ -> name :: acc) |> List.rev
  in
  Alcotest.(check (list string)) "sorted fold" [ "depth"; "lat"; "pulls"; "ratio" ] names;
  let metrics =
    match Json.of_string (Metrics.to_json reg) with
    | Ok doc -> (
        match Json.member "metrics" doc with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "no metrics array")
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  let field name key =
    match
      List.find_opt (fun m -> Json.member "name" m = Some (Json.String name)) metrics
    with
    | Some m -> Json.member key m
    | None -> Alcotest.failf "metric %s missing" name
  in
  let check_json msg want got =
    Alcotest.(check string) msg (Json.to_string want)
      (Option.fold ~none:"<absent>" ~some:Json.to_string got)
  in
  check_json "json counter" (Json.Int 6) (field "pulls" "value");
  check_json "json gauge" (Json.Float 2.5) (field "depth" "value");
  check_json "infinite gauge is null" Json.Null (field "ratio" "value");
  let bucket le count = Json.Obj [ ("le", le); ("count", Json.Int count) ] in
  check_json "json overflow bucket"
    (Json.List
       [ bucket (Json.Int 1) 1; bucket (Json.Int 10) 1; bucket (Json.String "+inf") 1 ])
    (field "lat" "buckets");
  (* Prometheus-style running totals ride along with the per-bucket counts. *)
  check_json "json cumulative buckets"
    (Json.List
       [ bucket (Json.Int 1) 1; bucket (Json.Int 10) 2; bucket (Json.String "+inf") 3 ])
    (field "lat" "cumulative")

(* ------------------------------------------------------------------ *)
(* End-to-end: a traced SMR run *)

let traced_spec obs =
  {
    Runner.default_spec with
    n = 8;
    protocol = Runner.Single_clan { nc = 5 };
    txns_per_proposal = 50;
    duration = Time.s 3.;
    warmup = Time.s 1.;
    obs;
  }

let test_trace_ordering () =
  let obs = Obs.create () in
  let r = Runner.run (traced_spec (Some obs)) in
  Alcotest.(check bool) "run committed" true (r.Runner.committed_txns > 0);
  let tr = obs.Obs.trace in
  Alcotest.(check bool) "events recorded" true (Trace.length tr > 1000);
  (* Events are emitted synchronously from engine callbacks, so timestamps
     are non-decreasing in emission order — for every variant. *)
  let prev = ref min_int in
  let commits = ref 0 and sends = ref 0 and recvs = ref 0 in
  Trace.iter tr (fun { Trace.ts; ev } ->
      Alcotest.(check bool) "ts non-decreasing" true (ts >= !prev);
      prev := ts;
      match ev with
      | Trace.Uplink { enqueued; start; depart; _ } ->
          Alcotest.(check bool) "ts = enqueued" true (ts = enqueued);
          Alcotest.(check bool) "queue before wire" true
            (enqueued <= start && start <= depart)
      | Trace.Vertex_commit { leader_round; round; _ } ->
          incr commits;
          Alcotest.(check bool) "committed under a leader" true (round <= leader_round)
      | Trace.Msg_bcast { count; _ } -> sends := !sends + count
      | Trace.Msg_recv _ -> incr recvs
      | _ -> ());
  Alcotest.(check bool) "saw commits" true (!commits > 0);
  Alcotest.(check bool) "saw sends" true (!sends > 0);
  (* A benign run loses nothing, but messages still in flight when the
     horizon cuts the run short never deliver: recv trails send slightly. *)
  Alcotest.(check bool) "receipts trail sends" true (!recvs > 0 && !recvs <= !sends);
  Alcotest.(check bool) "in-flight tail is small" true
    (!sends - !recvs < !sends / 10)

let test_metrics_capture () =
  let obs = Obs.metrics_only () in
  let r = Runner.run (traced_spec (Some obs)) in
  Alcotest.(check bool) "no trace buffer" false (Obs.tracing obs);
  let reg = obs.Obs.metrics in
  (match Metrics.find reg "net_bytes_total" with
  | Some (Metrics.Counter_v b) ->
      Alcotest.(check int) "registry matches result" r.Runner.bytes_total b
  | _ -> Alcotest.fail "net_bytes_total missing");
  (match Metrics.find reg ~labels:[ ("kind", "val") ] "net_bytes_by_kind" with
  | Some (Metrics.Counter_v b) -> Alcotest.(check bool) "val bytes flow" true (b > 0)
  | _ -> Alcotest.fail "per-kind counter missing");
  match Metrics.find reg ~labels:[ ("node", "0") ] "commit_latency_ms" with
  | Some (Metrics.Histogram_v h) ->
      Alcotest.(check bool) "latency observed" true (Util.Stats.Histogram.count h > 0)
  | _ -> Alcotest.fail "commit_latency_ms missing"

let test_tracing_is_inert () =
  (* The acceptance bar: same seed, tracing or profiling on or off,
     bit-identical commit sequences (and identical headline numbers). *)
  let quiet = Runner.run (traced_spec None) in
  let profiled =
    Prof.set_enabled true;
    Fun.protect
      ~finally:(fun () -> Prof.set_enabled false)
      (fun () -> Runner.run (traced_spec None))
  in
  let traced = Runner.run (traced_spec (Some (Obs.create ()))) in
  List.iter
    (fun (name, (r : Runner.result)) ->
      Alcotest.(check int) (name ^ ": same fingerprint") quiet.Runner.commit_fingerprint
        r.Runner.commit_fingerprint;
      Alcotest.(check int) (name ^ ": same txns") quiet.Runner.committed_txns
        r.Runner.committed_txns;
      Alcotest.(check int) (name ^ ": same bytes") quiet.Runner.bytes_total r.Runner.bytes_total;
      Alcotest.(check int) (name ^ ": same events") quiet.Runner.events r.Runner.events)
    [ ("traced", traced); ("profiled", profiled) ];
  (* And re-running traced is self-consistent (fingerprint is stable). *)
  let traced' = Runner.run (traced_spec (Some (Obs.create ()))) in
  Alcotest.(check int) "traced rerun" traced.Runner.commit_fingerprint
    traced'.Runner.commit_fingerprint

(* Settled-copy elision is exact: an untraced run skips the echo and
   certificate copies its receivers are certain to ignore at their
   arrival, a traced run schedules every copy, and both report the same
   run — fingerprint, events, per-node received bytes and per-kind
   message and byte counts. The counters are every net counter of the
   registry. *)
let net_counters reg =
  Metrics.fold reg ~init:[] ~f:(fun acc ~name ~labels v ->
      match v with
      | Metrics.Counter_v c when String.length name > 4 && String.sub name 0 4 = "net_" ->
          (name, labels, c) :: acc
      | _ -> acc)
  |> List.rev

let check_elision_exact name spec =
  let run obs = (Runner.run { spec with Runner.obs = Some obs }, obs.Obs.metrics) in
  let plain, plain_reg = run (Obs.metrics_only ()) in
  let traced, traced_reg = run (Obs.create ()) in
  Alcotest.(check int) (name ^ ": fingerprint") traced.Runner.commit_fingerprint
    plain.Runner.commit_fingerprint;
  Alcotest.(check int) (name ^ ": events") traced.Runner.events plain.Runner.events;
  Alcotest.(check int) (name ^ ": traced runs every event") traced.Runner.events
    traced.Runner.dispatched;
  Alcotest.(check bool) (name ^ ": untraced run elides copies") true
    (plain.Runner.dispatched < plain.Runner.events);
  let counters = net_counters plain_reg in
  Alcotest.(check bool) (name ^ ": per-node and per-kind counters present") true
    (List.exists (fun (n, _, _) -> n = "net_bytes_received") counters
    && List.exists (fun (n, _, _) -> n = "net_messages_by_kind") counters);
  Alcotest.(check (list (triple string (list (pair string string)) int)))
    (name ^ ": net counters") (net_counters traced_reg) counters

let test_elision_exact () =
  let base =
    {
      Runner.default_spec with
      n = 16;
      protocol = Runner.Full;
      txns_per_proposal = 200;
      duration = Time.s 4.;
      warmup = Time.s 1.;
      seed = 1L;
    }
  in
  check_elision_exact "dense n=16" base;
  check_elision_exact "sparse k=3" { base with protocol = Runner.Sparse { k = 3 } };
  check_elision_exact "single clan" { base with protocol = Runner.Single_clan { nc = 11 } };
  check_elision_exact "crash and restart"
    {
      base with
      txns_per_proposal = 30;
      duration = Time.s 7.;
      crashed = [ 9 ];
      restarts = [ { Faults.node = 3; crash_at = Time.s 3.; recover_at = Time.s 5. } ];
    }

let suites =
  [
    ( "obs.trace",
      [
        Alcotest.test_case "sink basics" `Quick test_sink_basics;
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
        QCheck_alcotest.to_alcotest prop_jsonl_total;
        Alcotest.test_case "jsonl file round-trip" `Quick test_jsonl_file_roundtrip;
        Alcotest.test_case "streaming sink" `Quick test_stream_sink;
        Alcotest.test_case "chrome export" `Quick test_chrome_export;
      ] );
    ( "obs.metrics",
      [ Alcotest.test_case "registry" `Quick test_registry ] );
    ( "obs.smr",
      [
        Alcotest.test_case "trace ordering" `Quick test_trace_ordering;
        Alcotest.test_case "metrics capture" `Quick test_metrics_capture;
        Alcotest.test_case "tracing is inert" `Quick test_tracing_is_inert;
        Alcotest.test_case "elision is exact" `Quick test_elision_exact;
      ] );
  ]
