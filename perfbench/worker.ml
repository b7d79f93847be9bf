(* One benchmark run in one fresh process.

     worker.exe WORKLOAD SEED MODE

   MODE is one of
   - [plain]: a few zero-length set-up runs (their median is [setup_s]),
     then the measured run with profiling and tracing off;
   - [prof]: the measured run with the section profiler on;
   - [trace]: the measured run with a full trace, analysed afterwards.

   Prints one flat JSON object on stdout. The orchestrator ([run.py])
   spawns one process per run, so wall time and peak heap belong to that
   run alone. Everything here goes through the public [Runner.run] and the
   library's existing observability accessors. *)

open Clanbft
module Time = Sim.Time

(* ---- workloads ---------------------------------------------------- *)

let restart_node = 3
let crashed_node = 9

let spec_of workload seed =
  let base = { Runner.default_spec with seed; txn_size = 512 } in
  match workload with
  | "dense-n50" ->
      {
        base with
        n = 50;
        protocol = Runner.Full;
        txns_per_proposal = 200;
        duration = Time.s 6.5;
        warmup = Time.s 1.;
      }
  | "crash-recover" ->
      {
        base with
        n = 16;
        protocol = Runner.Full;
        txns_per_proposal = 30;
        duration = Time.s 30.;
        warmup = Time.s 1.;
        persist = true;
        crashed = [ crashed_node ];
        restarts =
          [
            {
              Faults.node = restart_node;
              crash_at = Time.s 3.;
              recover_at = Time.s 5.;
            };
          ];
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---- output --------------------------------------------------------- *)

let fields : (string * string) list ref = ref []
let num k v = fields := (k, Printf.sprintf "%.17g" v) :: !fields
let int k v = fields := (k, string_of_int v) :: !fields
let str k v = fields := (k, Printf.sprintf "%S" v) :: !fields
let bool k v = fields := (k, string_of_bool v) :: !fields

let print_fields () =
  List.rev !fields
  |> List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v)
  |> String.concat ", "
  |> Printf.printf "{%s}\n"

(* ---- helpers -------------------------------------------------------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let mw words = words /. 1e6

(* Sum of a labelled counter family, e.g. one counter per node. *)
let counter_sum reg name =
  Metrics.fold reg ~init:0 ~f:(fun acc ~name:n ~labels:_ v ->
      match v with Metrics.Counter_v c when n = name -> acc + c | _ -> acc)

let counter_max reg name =
  Metrics.fold reg ~init:0 ~f:(fun acc ~name:n ~labels:_ v ->
      match v with Metrics.Counter_v c when n = name -> max acc c | _ -> acc)

let counter reg ?labels name =
  match Metrics.find reg ?labels name with
  | Some (Metrics.Counter_v c) -> c
  | _ -> 0

let gauge reg ?labels name =
  match Metrics.find reg ?labels name with
  | Some (Metrics.Gauge_v g) -> g
  | _ -> 0.

let msg_kinds =
  [ "val"; "echo"; "echo_cert"; "timeout_share"; "no_vote_share";
    "timeout_cert"; "block_request"; "block_reply"; "vertex_request";
    "vertex_reply"; "sync_request"; "sync_reply" ]

(* ---- the measured run ----------------------------------------------- *)

(* Simulated results and correctness, common to every mode. *)
let report_result (spec : Runner.spec) reg (r : Runner.result) ~wall =
  int "n_nodes" spec.n;
  int "duration_us" spec.duration;
  int "txn_size" spec.txn_size;
  bool "agreement" r.agreement;
  str "fingerprint" (Printf.sprintf "%#x" r.commit_fingerprint);
  num "wall_s" wall;
  num "tput_ktps" r.throughput_ktps;
  num "lat_p50_ms" r.latency_p50_ms;
  num "lat_p99_ms" r.latency_p99_ms;
  (* Every block carries exactly [txns_per_proposal] transactions, and each
     block committed by all in the window is one latency sample. *)
  int "lat_samples" (r.committed_txns / spec.txns_per_proposal);
  int "events" r.events;
  int "rounds" r.rounds;
  int "leaders_committed" r.leaders_committed;
  num "catchup_ms"
    (gauge reg ~labels:[ ("node", string_of_int restart_node) ] "recovery_wall_ms");
  (* Whole-run counters: messages and bytes are counted from time 0, so the
     denominator is the whole-run ledger of the replica that committed most. *)
  int "committed_txns_run"
    (counter_max reg "dag_vertices_committed" * spec.txns_per_proposal);
  int "net_messages" (counter reg "net_messages_total");
  int "net_bytes" (counter reg "net_bytes_total");
  List.iter
    (fun k ->
      int ("net_bytes." ^ k) (counter reg ~labels:[ ("kind", k) ] "net_bytes_by_kind"))
    msg_kinds;
  int "uplink_busy_us" (counter reg "uplink_busy_us_total");
  (match Metrics.find reg "uplink_backlog_us" with
  | Some (Metrics.Histogram_v h) ->
      num "uplink_backlog_p99_us" (Util.Stats.Histogram.quantile h 0.99)
  | _ -> num "uplink_backlog_p99_us" 0.);
  int "pull_retries" (counter_sum reg "sailfish_pull_retries");
  int "rounds_fetched" (counter_sum reg "recovery_rounds_fetched")

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  num "gc_minor_mw" (mw (g1.Gc.minor_words -. g0.Gc.minor_words));
  num "gc_promoted_mw" (mw (g1.Gc.promoted_words -. g0.Gc.promoted_words));
  num "gc_major_mw" (mw (g1.Gc.major_words -. g0.Gc.major_words));
  r

let measured spec =
  let obs = Obs.metrics_only () in
  let spec = { spec with Runner.obs = Some obs } in
  let r, wall = timed (fun () -> gc_delta (fun () -> Runner.run spec)) in
  report_result spec obs.Obs.metrics r ~wall;
  num "peak_heap_mb"
    (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6)

(* Zero-length runs of the same spec build every replica, key and queue
   and stop before the first simulated event; their median is the set-up
   cost. *)
let setup_reps = 11

(* A fixed loop that uses nothing from the library: hashtable inserts and
   lookups over small boxed records, some of which survive into the major
   heap, like the simulator's own event and message churn. Its time tracks
   how fast the host runs this kind of code right now, so host times can
   be stated at a reference speed (run.py). *)
let reference_once () =
  snd
    (timed (fun () ->
         let tbl = Hashtbl.create 16 in
         let acc = ref 0 in
         for i = 0 to 300_000 do
           Hashtbl.replace tbl (i * 7919 mod 131_072) (i, Array.make 6 i);
           match Hashtbl.find_opt tbl (i * 104_729 mod 131_072) with
           | Some (_, a) -> acc := !acc + a.(0)
           | None -> ()
         done;
         ignore (Sys.opaque_identity !acc)))

let plain spec =
  let setups =
    List.init setup_reps (fun _ ->
        snd
          (timed (fun () ->
               Runner.run
                 { spec with Runner.duration = Time.zero; warmup = Time.zero })))
  in
  num "setup_s" (median setups);
  Gc.compact ();
  measured spec;
  (* Only after the run: timing it first would change the heap the run
     starts from, and with it the run's allocation counts. *)
  Gc.compact ();
  num "ref_s" (median (List.init 5 (fun _ -> reference_once ())))

let prof spec =
  Prof.set_enabled true;
  Prof.reset ();
  measured spec;
  Prof.set_enabled false;
  List.iter
    (fun (row : Prof.row) ->
      let k = "prof." ^ row.name in
      int (k ^ ".calls") row.calls;
      num (k ^ ".self_ms") (float_of_int row.self_ns /. 1e6);
      num (k ^ ".self_minor_mw") (mw (float_of_int row.self_minor_words));
      num (k ^ ".self_major_mw") (mw (float_of_int row.self_major_words)))
    (Prof.report ())

(* The trace streams through a pipe to a reader domain that keeps only
   the records the critical-path analysis reads (protocol phases, DAG
   delivery and commit, faults, recovery); per-message records are the
   bulk of the stream and would otherwise dominate the heap. *)
let keep line =
  (* Every line starts with the timestamp field, then the type field; skip
     the msg_* and uplink types. *)
  match String.index_opt line ',' with
  | Some i when String.length line > i + 12 ->
      let k = String.sub line (i + 9) 3 in
      k <> "msg" && k <> "upl"
  | _ -> false

let trace spec =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let reader =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr rd in
        let rec loop acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line when keep line -> (
              match Trace.of_jsonl_line line with
              | Some r -> loop (r :: acc)
              | None -> loop acc)
          | Some _ -> loop acc
        in
        let records = loop [] in
        close_in ic;
        records)
  in
  let oc = Unix.out_channel_of_descr wr in
  let obs = Obs.of_trace (Trace.stream oc) in
  let spec = { spec with Runner.obs = Some obs } in
  let r, wall = timed (fun () -> Runner.run spec) in
  close_out oc;
  let records = Domain.join reader in
  report_result spec obs.Obs.metrics r ~wall;
  let a = Analyze.analyze records in
  let ms us = float_of_int us /. 1e3 in
  List.iter
    (fun (seg, (d : Analyze.dist)) ->
      let k = "seg." ^ Analyze.segment_name seg in
      num (k ^ "_p50_ms") (ms d.p50_us);
      num (k ^ "_p99_ms") (ms d.p99_us))
    a.segments;
  num "analyze.round_advance_p50_ms" (ms a.round_advance.p50_us);
  int "analyze.stalls" (List.length a.stalls)

let () =
  match Sys.argv with
  | [| _; workload; seed; mode |] ->
      let spec = spec_of workload (Int64.of_string seed) in
      str "workload" workload;
      str "mode" mode;
      (match mode with
      | "plain" -> plain spec
      | "prof" -> prof spec
      | "trace" -> trace spec
      | m -> invalid_arg ("unknown mode " ^ m));
      print_fields ()
  | _ ->
      prerr_endline "usage: worker.exe WORKLOAD SEED (plain|prof|trace)";
      exit 2
