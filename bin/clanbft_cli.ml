(* clanbft command-line interface.

     clanbft sim        — run a simulated experiment and print metrics
     clanbft sweep      — run a load sweep across worker domains
     clanbft profile    — run a scenario under the self-profiler (docs/PROFILING.md)
     clanbft analyze    — analyze a recorded JSONL trace (docs/ANALYSIS.md)
     clanbft clan-size  — exact committee sizing (Fig. 1 / §6.2 machinery)
     clanbft rbc        — broadcast one value through a chosen RBC variant
     clanbft latency    — architectural latency bounds (§1 / §8)          *)

open Cmdliner
open Clanbft
open Clanbft.Sim

(* ------------------------------------------------------------------ *)
(* Flags *)

(* Usage errors print one line to stderr and exit 2. *)
let fail2 fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      Stdlib.exit 2)
    fmt

let protocol_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "full" | "sailfish" -> Ok `Full
    | "single-clan" | "single" -> Ok `Single
    | "multi-clan" | "multi" -> Ok `Multi
    | "sparse" -> Ok `Sparse
    | _ -> Error (`Msg "expected full | single-clan | multi-clan | sparse")
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | `Full -> "full"
      | `Single -> "single-clan"
      | `Multi -> "multi-clan"
      | `Sparse -> "sparse")
  in
  Arg.conv (parse, print)

(* Shared fault-plan flags (see Faults DSL docs / EXPERIMENTS.md). *)
let fault_flags =
  let faults =
    Arg.(value & opt_all string []
         & info [ "fault" ]
             ~doc:"Fault rule, e.g. $(b,drop=0.5:kind=echo:dst=8:until=3s), \
                   $(b,delay=10ms..80ms:src=1) or $(b,dup=2:kind=val). Repeatable.")
  in
  let partitions =
    Arg.(value & opt_all string []
         & info [ "partition" ]
             ~doc:"Network partition, e.g. $(b,0,1,2|3,4:until=2s) (heals at \
                   2 s). Repeatable.")
  in
  let mutes =
    Arg.(value & opt_all string []
         & info [ "mute" ]
             ~doc:"Mute a node, e.g. $(b,3:round=10) or $(b,3:time=2s). \
                   Repeatable.")
  in
  Term.(
    const (fun faults partitions mutes ->
        match Faults.plan_of_specs ~rules:faults ~partitions ~mutes () with
        | Ok plan -> plan
        | Error e -> fail2 "bad fault spec: %s" e)
    $ faults $ partitions $ mutes)

let restarts_flag =
  let restarts =
    Arg.(value & opt_all string []
         & info [ "restart" ]
             ~doc:"Crash–recovery schedule for one replica, \
                   $(b,NODE@CRASH:RECOVER), e.g. $(b,3@4s:8s): replica 3 \
                   crashes at 4 s and restarts from its write-ahead log at \
                   8 s. Repeatable (at most once per replica).")
  in
  Term.(
    const (fun specs ->
        match Faults.restarts_of_specs specs with
        | Ok rs -> rs
        | Error e -> fail2 "bad restart spec: %s" e)
    $ restarts)

let adversaries_flag =
  let advs =
    Arg.(value & opt_all string []
         & info [ "adversary" ]
             ~doc:"Strategic adversary occupying a node for the whole run, \
                   $(b,NODE@STRATEGY[:ARG]): $(b,3@equivocate), \
                   $(b,3@censor:5) (censor node 5), $(b,3@grief:0.8) \
                   (proposals ride at 0.8 x round_timeout), $(b,3@storm:32) \
                   (sync-request amplification) or $(b,3@reorder:2ms). \
                   Repeatable; see docs/ATTACKS.md.")
  in
  Term.(
    const (fun specs ->
        match Strategy.of_specs specs with
        | Ok a -> a
        | Error e -> fail2 "bad adversary spec: %s" e)
    $ advs)

(* ------------------------------------------------------------------ *)
(* Run-spec flags shared by sim, sweep and profile *)

(* Runner.run and Harness.build refuse what their validate rejects; the CLI
   reports it as a usage error instead. *)
let checked what validate spec =
  match validate spec with Ok () -> spec | Error e -> fail2 "bad %s spec: %s" what e

let validated = checked "run" Runner.validate

(* One term builds the spec every run-style subcommand starts from: the
   shared flags (protocol with its default clan size, topology, ...), then
   [extras] — the subcommand's own spec flags — and one validation of the
   result, so every node id is checked against [-n] in one place. *)
let spec_term ?(seed_doc = "Random seed.") extras =
  let build n protocol nc q sparse_k size duration warmup seed uniform extra =
    let protocol =
      match protocol with
      | `Full -> Runner.Full
      | `Single ->
          let threshold = Bigint.Rat.of_ints 1 1_000_000 in
          let nc =
            match nc with
            | Some nc -> nc
            | None ->
                Committee.min_clan_size ~n ~f:(Committee.default_f n) ~threshold ()
                |> Option.value ~default:n
          in
          Runner.Single_clan { nc }
      | `Multi -> Runner.Multi_clan { q }
      | `Sparse -> Runner.Sparse { k = sparse_k }
    in
    validated
      (extra
         {
           Runner.default_spec with
           n;
           protocol;
           txn_size = size;
           duration = Time.s duration;
           warmup = Time.s warmup;
           seed = Int64.of_int seed;
           topology = (match uniform with Some ms -> `Uniform ms | None -> `Gcp);
         })
  in
  let n = Arg.(value & opt int 16 & info [ "n" ] ~doc:"Tribe size.") in
  let protocol =
    Arg.(value & opt protocol_conv `Single
         & info [ "p"; "protocol" ] ~doc:"full | single-clan | multi-clan | sparse.")
  in
  let nc =
    Arg.(value & opt (some int) None
         & info [ "clan-size" ] ~doc:"Clan size (single-clan); default: exact minimum at 1e-6.")
  in
  let q = Arg.(value & opt int 2 & info [ "clans" ] ~doc:"Clan count (multi-clan).") in
  let sparse_k =
    Arg.(value & opt int 3
         & info [ "sparse-k" ]
             ~doc:"Sampled strong parents per vertex (sparse protocol).")
  in
  let size = Arg.(value & opt int 512 & info [ "txn-size" ] ~doc:"Transaction bytes.") in
  let duration = Arg.(value & opt float 10.0 & info [ "duration" ] ~doc:"Simulated seconds.") in
  let warmup = Arg.(value & opt float 3.0 & info [ "warmup" ] ~doc:"Warm-up seconds.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:seed_doc) in
  let uniform =
    Arg.(value & opt (some float) None
         & info [ "uniform" ] ~doc:"Uniform one-way delay (ms) instead of the GCP topology.")
  in
  Term.(
    const build $ n $ protocol $ nc $ q $ sparse_k $ size $ duration $ warmup
    $ seed $ uniform $ extras)

let load_flag =
  Arg.(value & opt int 500 & info [ "load" ] ~doc:"Transactions per proposal.")

let persist_flag ~doc = Arg.(value & flag & info [ "persist" ] ~doc)

(* The run summary of sim and profile. The fingerprint prints in hex, like
   the bench and BENCH_sim.json. *)
let print_summary ?(traffic = false) (r : Runner.result) =
  Format.printf "%a@." Runner.pp_result r;
  if traffic then
    Format.printf
      "committed %d txns over %d rounds; %d leaders; %.1f MB total traffic@."
      r.committed_txns r.rounds r.leaders_committed
      (float_of_int r.bytes_total /. 1e6);
  Format.printf "commit fingerprint: %#x@." r.commit_fingerprint;
  Format.printf "events %d  dispatched %d@." r.events r.dispatched;
  List.iter
    (fun (node, commits) ->
      Format.printf "post-recovery commits [replica %d]: %d@." node commits)
    r.post_recovery_commits

(* ------------------------------------------------------------------ *)
(* sim *)

let sim_cmd =
  let run spec trace trace_chrome metrics_out verbose =
    if verbose then begin
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    let run_with obs = Runner.run { spec with Runner.obs } in
    (* A plain --trace streams each event straight to the JSONL file, so
       long runs never hold the trace in memory; --trace-chrome needs the
       full buffer (span pairing), and then a co-requested --trace is
       written from the same buffer. Metrics alone skip the buffer too. *)
    let streamed = trace <> None && trace_chrome = None in
    let r, obs =
      if streamed then
        Runner.with_streamed_trace ~path:(Option.get trace) (fun obs ->
            (run_with (Some obs), Some obs))
      else
        let obs =
          if trace <> None || trace_chrome <> None then Some (Obs.create ())
          else if metrics_out <> None then Some (Obs.metrics_only ())
          else None
        in
        (run_with obs, obs)
    in
    print_summary ~traffic:true r;
    (match obs with
    | None -> ()
    | Some o ->
        Option.iter
          (fun path ->
            if not streamed then Trace.write_jsonl o.Obs.trace path;
            Format.printf "trace: %d events -> %s@." (Trace.length o.Obs.trace) path)
          trace;
        Option.iter
          (fun path ->
            Trace.write_chrome o.Obs.trace path;
            Format.printf "chrome trace: %d events -> %s@."
              (Trace.length o.Obs.trace) path)
          trace_chrome;
        Option.iter
          (fun path ->
            Metrics.write_json o.Obs.metrics path;
            Format.printf "metrics -> %s@." path)
          metrics_out);
    if not r.agreement then exit 1
  in
  let extras =
    let crashed =
      Arg.(
        value & opt (list int) []
        & info [ "crash" ] ~doc:"Replica ids down for the whole run: they run no replica.")
    in
    let persist =
      persist_flag
        ~doc:"Run every replica over the simulated persistence layer \
              (journal deliveries to a write-ahead log). Implied by \
              $(b,--restart)."
    in
    Term.(
      const (fun load crashed fault_plan restarts adversaries persist spec ->
          {
            spec with
            Runner.txns_per_proposal = load;
            crashed;
            fault_plan;
            restarts;
            adversaries;
            persist;
          })
      $ load_flag $ crashed $ fault_flags $ restarts_flag $ adversaries_flag
      $ persist)
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a structured event trace and write it as JSONL \
                   (one JSON object per line; schema in docs/OBSERVABILITY.md).")
  in
  let trace_chrome =
    Arg.(value & opt (some string) None
         & info [ "trace-chrome" ] ~docv:"FILE"
             ~doc:"Record a trace and write it in Chrome trace_event format \
                   (load in chrome://tracing or ui.perfetto.dev).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Dump the metric registry (counters, gauges, histograms) \
                   as JSON at the end of the run.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logs.") in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a simulated geo-distributed experiment")
    Term.(
      const run $ spec_term extras $ trace $ trace_chrome $ metrics_out $ verbose)

(* ------------------------------------------------------------------ *)
(* clan-size *)

let clan_size_cmd =
  let run n f q exponent =
    let f = match f with Some f -> f | None -> Committee.default_f n in
    let threshold = Bigint.Rat.pow2 (-exponent) in
    Printf.printf "n=%d f=%d threshold=2^-%d\n" n f exponent;
    match Committee.min_clan_size ~q ~n ~f ~threshold () with
    | Some nc ->
        let p =
          if q = 1 then Committee.single_clan_failure ~n ~f ~nc
          else Committee.multi_clan_failure ~n ~f ~q ~nc
        in
        Printf.printf "minimum clan size: %d (exact failure %s)\n" nc
          (Bigint.Rat.to_scientific p)
    | None -> Printf.printf "no clan size up to n/q achieves the threshold\n"
  in
  let n = Arg.(value & opt int 500 & info [ "n" ] ~doc:"Tribe size.") in
  let f = Arg.(value & opt (some int) None & info [ "f" ] ~doc:"Byzantine bound.") in
  let q = Arg.(value & opt int 1 & info [ "clans" ] ~doc:"Number of disjoint clans.") in
  let mu = Arg.(value & opt int 30 & info [ "mu" ] ~doc:"Security exponent (2^-mu).") in
  Cmd.v
    (Cmd.info "clan-size" ~doc:"Exact minimum clan size (hypergeometric / Eq. 3-7)")
    Term.(const run $ n $ f $ q $ mu)

(* ------------------------------------------------------------------ *)
(* rbc *)

let rbc_cmd =
  let run n nc protocol bytes adversary reveal decoys seed duration fault_plan =
    let protocol =
      match String.lowercase_ascii protocol with
      | "bracha" -> Rbc.Bracha
      | "signed" -> Rbc.Signed_two_round
      | "tribe-bracha" -> Rbc.Tribe_bracha
      | "tribe-signed" -> Rbc.Tribe_signed
      | _ ->
          fail2 "protocol: bracha | signed | tribe-bracha | tribe-signed"
    in
    let value = String.make bytes 'x' in
    let behaviour =
      (* Default reveal is f_c + 1: the smallest clan exposure that still
         lets the echo quorum form, forcing the rest of the clan to pull. *)
      let reveal = match reveal with Some r -> r | None -> (nc + 1) / 2 in
      let decoy = String.make bytes 'y' in
      match String.lowercase_ascii adversary with
      | "none" -> None
      | "silent" -> Some Adversary.Silent
      | "equivocate" -> Some (Adversary.Equivocate { values = [ value; decoy ] })
      | "equivocate-biased" ->
          Some (Adversary.Equivocate_biased { value; decoy; decoys })
      | "withhold" -> Some (Adversary.Withhold { value; reveal })
      | _ ->
          fail2 "adversary: none | silent | equivocate | equivocate-biased | withhold"
    in
    let clan = Committee.elect_balanced ~n ~nc in
    let w =
      (* The Byzantine sender runs no honest instance. *)
      Rbc_world.create ~topology:(Topology.gcp_table1 ~n) ~config:Net.default_config
        ~seed:(Int64.of_int seed) ~clan
        ~byzantine:(if behaviour = None then [] else [ 0 ])
        ~plan:fault_plan protocol
    in
    (match behaviour with
    | None -> Rbc.broadcast (Rbc_world.node w 0) ~round:1 value
    | Some b -> Adversary.run ~sender:0 ~n ~clan ~protocol ~net:w.net ~round:1 b);
    (* Adversarial scenarios can legitimately never deliver (e.g. a silent
       or cleanly equivocating sender), so bound the run. *)
    if behaviour = None && w.injector = None then Engine.run w.engine
    else Engine.run ~until:(Time.s duration) w.engine;
    let s = Rbc_world.summary w in
    let delivered = s.values + s.digests in
    (match behaviour with
    | None -> ()
    | Some b ->
        Printf.printf "adversary: %s (sender 0, seed %d)\n"
          (Adversary.behaviour_name b) seed);
    Printf.printf
      "%s: %d/%d honest nodes delivered (%d full values, %d digests, %d stalled)\n"
      (Rbc.protocol_name protocol)
      delivered (delivered + s.stalled) s.values s.digests s.stalled;
    Printf.printf "agreement: %s\n"
      (if s.distinct <= 1 then "ok (single digest)"
       else Printf.sprintf "VIOLATED (%d distinct digests)" s.distinct);
    if delivered > 0 then
      Printf.printf "last delivery at %.1f ms; %.2f MB total on the wire\n"
        (Time.to_ms s.last)
        (float_of_int (Net.total_bytes w.net) /. 1e6);
    Option.iter
      (fun i ->
        Printf.printf "fault injector: %d dropped, %d delayed, %d duplicated\n"
          (Faults.dropped i) (Faults.delayed i) (Faults.duplicated i))
      w.injector;
    if s.distinct > 1 then exit 1
  in
  let n = Arg.(value & opt int 40 & info [ "n" ] ~doc:"Tribe size.") in
  let nc = Arg.(value & opt int 16 & info [ "clan-size" ] ~doc:"Clan size.") in
  let protocol =
    Arg.(value & opt string "tribe-signed" & info [ "p"; "protocol" ] ~doc:"RBC variant.")
  in
  let bytes = Arg.(value & opt int 1_000_000 & info [ "bytes" ] ~doc:"Value size.") in
  let adversary =
    Arg.(value & opt string "none"
         & info [ "adversary" ]
             ~doc:"Byzantine sender behaviour: $(b,none) | $(b,silent) | \
                   $(b,equivocate) | $(b,equivocate-biased) | $(b,withhold).")
  in
  let reveal =
    Arg.(value & opt (some int) None
         & info [ "reveal" ]
             ~doc:"Clan members the withholding sender sends the full value \
                   to (default: exactly f_c+1).")
  in
  let decoys =
    Arg.(value & opt int 1
         & info [ "decoys" ]
             ~doc:"Recipients fed the decoy value by equivocate-biased.")
  in
  let seed = Arg.(value & opt int 77 & info [ "seed" ] ~doc:"Random seed.") in
  let dur =
    Arg.(value & opt float 60.0
         & info [ "duration" ] ~doc:"Simulated horizon (s) for adversarial runs.")
  in
  Cmd.v
    (Cmd.info "rbc"
       ~doc:"Run one reliable-broadcast instance (optionally under a \
             Byzantine sender and injected network faults) and report cost")
    Term.(
      const run $ n $ nc $ protocol $ bytes $ adversary $ reveal $ decoys $ seed
      $ dur $ fault_flags)

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let run spec loads jobs =
    let specs =
      Array.of_list
        (List.mapi
           (fun i load ->
             validated
               {
                 spec with
                 Runner.txns_per_proposal = load;
                 (* Each point gets its own seed so results do not depend on
                    which worker domain ran it or in what order. *)
                 seed = Int64.add spec.Runner.seed (Int64.of_int (i * 7919));
               })
           loads)
    in
    let jobs = match jobs with Some j -> j | None -> Util.Pool.default_jobs () in
    Printf.eprintf "sweeping %d points across %d worker domain(s)\n%!"
      (Array.length specs) jobs;
    let results =
      Util.Pool.with_pool ~jobs (fun pool -> Runner.run_many ~pool specs)
    in
    Array.iter (fun r -> Format.printf "%a@." Runner.pp_result r) results;
    if Array.exists (fun (r : Runner.result) -> not r.agreement) results then
      exit 1
  in
  let extras =
    Term.(const (fun restarts spec -> { spec with Runner.restarts }) $ restarts_flag)
  in
  let loads =
    Arg.(value & opt (list int) [ 125; 500; 1500; 3000; 6000 ]
         & info [ "loads" ] ~doc:"Comma-separated transactions-per-proposal sweep.")
  in
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ]
             ~doc:"Worker domains (default: $(b,CLANBFT_JOBS) or the \
                   recommended domain count).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a load sweep (one simulation per load point) across worker \
             domains; results print in load order and are independent of \
             scheduling")
    Term.(const run $ spec_term ~seed_doc:"Base random seed." extras $ loads $ jobs)

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let run spec folded_out json_out =
    Prof.set_enabled true;
    Prof.reset ();
    let r = Runner.run spec in
    Prof.set_enabled false;
    print_summary r;
    print_string (Prof.table ~census:r.census ());
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Prof.folded ());
        close_out oc;
        Format.printf "folded stacks -> %s@." path)
      folded_out;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Prof.to_json ~census:r.census ());
        close_out oc;
        Format.printf "profile json -> %s@." path)
      json_out;
    if not r.agreement then exit 1
  in
  let extras =
    let persist =
      persist_flag
        ~doc:"Run every replica over the simulated persistence layer \
              (exercises the WAL sections)."
    in
    Term.(
      const (fun load persist spec ->
          { spec with Runner.txns_per_proposal = load; persist })
      $ load_flag $ persist)
  in
  let folded_out =
    Arg.(value & opt (some string) None
         & info [ "folded" ] ~docv:"FILE"
             ~doc:"Write folded call stacks (one $(b,a;b;c microseconds) line \
                   per call path) for flamegraph.pl or speedscope.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the profile as JSON (schema $(b,clanbft/profile/v1)); \
                   $(b,*_ns) fields are wall-clock and non-deterministic, \
                   everything else is byte-stable per seed.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run a simulated scenario under the deterministic self-profiler: \
             per-section call counts, self/total wall time, allocation \
             attribution and a per-subsystem heap census (docs/PROFILING.md). \
             Profiling is pure observation — the run's commit fingerprint is \
             identical to an unprofiled run with the same seed.")
    Term.(const run $ spec_term extras $ folded_out $ json_out)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd =
  let run trace_file json stall_factor top_slow =
    if stall_factor <= 0.0 then fail2 "--stall-factor must be positive";
    if top_slow < 0 then fail2 "--top-slow must be non-negative";
    let records = Analyze.load_jsonl trace_file in
    if records = [] then fail2 "no parseable trace records in %s" trace_file;
    let report = Analyze.analyze ~stall_factor records in
    print_string (if json then Analyze.to_json report else Analyze.human report);
    if top_slow > 0 && not json then begin
      let slowest =
        List.stable_sort
          (fun (a : Analyze.path) (b : Analyze.path) ->
            compare (b.p_commit - b.p_origin) (a.p_commit - a.p_origin))
          report.Analyze.paths
      in
      let rec take k = function
        | x :: tl when k > 0 -> x :: take (k - 1) tl
        | _ -> []
      in
      let ms us = float_of_int us /. 1000.0 in
      Printf.printf "\nSlowest commits (top %d of %d, creation -> commit)\n"
        (min top_slow (List.length slowest))
        (List.length slowest);
      Printf.printf "  %-5s %-6s %-5s %9s" "node" "round" "src" "total";
      Array.iter
        (fun s -> Printf.printf " %13s" (Analyze.segment_name s))
        Analyze.all_segments;
      print_newline ();
      List.iter
        (fun (p : Analyze.path) ->
          Printf.printf "  %-5d %-6d %-5d %7.1fms" p.p_node p.p_round p.p_source
            (ms (p.p_commit - p.p_origin));
          Array.iter (fun v -> Printf.printf " %11.1fms" (ms v)) p.p_segments;
          print_newline ())
        (take top_slow slowest)
    end
  in
  let trace_file =
    Arg.(required & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"JSONL trace recorded by $(b,clanbft sim --trace) (schema \
                   in docs/OBSERVABILITY.md).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output (schema $(b,clanbft/analysis/v2)) \
                   instead of the human report.")
  in
  let stall_factor =
    Arg.(value & opt float 5.0
         & info [ "stall-factor" ]
             ~doc:"Flag a liveness stall when a progress gap exceeds this \
                   multiple of the median inter-progress gap.")
  in
  let top_slow =
    Arg.(value & opt int 0
         & info [ "top-slow" ] ~docv:"K"
             ~doc:"Also print the K slowest commits with their five-segment \
                   critical-path breakdown (human report only).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Analyze a recorded trace: commit critical-path attribution, \
             round timelines, uplink queueing, liveness stall detection \
             (docs/ANALYSIS.md)")
    Term.(const run $ trace_file $ json $ stall_factor $ top_slow)

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run model protocol n rounds adversary late_join crashes sparse_k
      exhaustive delay_budget window max_actions no_dpor walks steps seed
      replay schedule_out trace_out =
    let module H = Check.Harness in
    let module E = Check.Explore in
    let module S = Check.Schedule in
    let spec_of_flags () =
      let model =
        match String.lowercase_ascii model with
        | "rbc" -> "rbc-" ^ String.lowercase_ascii protocol
        | m -> m
      in
      let model =
        match H.model_of_string model with Ok m -> m | Error e -> fail2 "%s" e
      in
      let adversary =
        match H.adversary_of_string (String.lowercase_ascii adversary) with
        | Ok a -> a
        | Error e -> fail2 "bad adversary: %s" e
      in
      { H.model; n; rounds; adversary; late_join; crashes; sparse_k }
    in
    let validated = checked "check" H.validate in
    let model_name spec = H.model_to_string spec.H.model in
    let dump_trace world path =
      match H.obs world with
      | Some o ->
          Trace.write_jsonl o.Obs.trace path;
          Printf.printf "trace: %d events -> %s\n" (Trace.length o.Obs.trace) path
      | None -> ()
    in
    (* Print the counterexample with resolved delivery annotations and
       write the requested artifacts; the notes come from a deterministic
       re-run of the schedule. *)
    let report_schedule spec sched ~mode ~walk_seed ~invariant =
      let r = E.run_schedule spec sched in
      List.iter2
        (fun a note ->
          Printf.printf "  %-14s # %s\n" (S.action_to_string a) note)
        r.E.executed r.E.notes;
      (match schedule_out with
      | Some path ->
          let meta =
            H.spec_meta spec
            @ [ ("mode", mode); ("invariant", invariant) ]
            @
            match walk_seed with
            | Some s -> [ ("walk_seed", Int64.to_string s) ]
            | None -> []
          in
          S.save ~path ~meta ~notes:r.E.notes r.E.executed;
          Printf.printf "schedule -> %s\n" path
      | None -> ());
      match trace_out with
      | Some path ->
          let rt = E.run_schedule ~trace:true spec sched in
          dump_trace rt.E.world path
      | None -> ()
    in
    match replay with
    | Some path -> (
        match S.load path with
        | Error e -> fail2 "bad schedule file: %s" e
        | Ok (meta, sched) -> (
            match H.spec_of_meta meta with
            | Error e -> fail2 "bad schedule meta: %s" e
            | Ok spec -> (
                let spec = validated spec in
                let r = E.run_schedule ~trace:(trace_out <> None) spec sched in
                (match r.E.error with
                | Some e -> fail2 "schedule does not replay: %s" e
                | None -> ());
                Printf.printf "replayed %d actions (model=%s); state: %s\n"
                  (List.length r.E.executed) (model_name spec)
                  (H.state_line r.E.world);
                Option.iter (dump_trace r.E.world) trace_out;
                match r.E.run_violation with
                | Some v ->
                    Printf.printf "verdict: VIOLATION invariant=%s\n  %s\n"
                      v.H.invariant v.H.detail;
                    exit 1
                | None -> Printf.printf "verdict: ok\n")))
    | None -> (
        let spec = validated (spec_of_flags ()) in
        let mode = if exhaustive then "exhaustive" else "walk" in
        let result =
          if exhaustive then
            E.exhaustive ~delay_budget ~window ~max_actions ~dpor:(not no_dpor)
              spec
          else E.walks ~max_actions:steps ~seed:(Int64.of_int seed) ~count:walks spec
        in
        let st = result.E.stats in
        Printf.printf
          "check: model=%s mode=%s runs=%d transitions=%d pruned=%d \
           max-depth=%d truncated=%d\n"
          (model_name spec) mode st.E.runs st.E.transitions st.E.pruned
          st.E.max_depth st.E.truncated;
        match result.E.violation with
        | None -> Printf.printf "verdict: ok (0 violations)\n"
        | Some v ->
            Printf.printf "verdict: VIOLATION invariant=%s\n  %s\n"
              v.H.invariant v.H.detail;
            Option.iter
              (fun s -> Printf.printf "walk seed: %Ld\n" s)
              result.E.seed;
            let minimized = E.minimize spec result.E.schedule in
            Printf.printf "schedule (%d actions, minimized from %d):\n"
              (List.length minimized)
              (List.length result.E.schedule);
            report_schedule spec minimized ~mode ~walk_seed:result.E.seed
              ~invariant:v.H.invariant;
            exit 1)
  in
  let model =
    Arg.(value & opt string "rbc"
         & info [ "model" ] ~doc:"What to check: $(b,rbc) | $(b,sailfish).")
  in
  let protocol =
    Arg.(value & opt string "tribe-bracha"
         & info [ "p"; "protocol" ]
             ~doc:"RBC family (with $(b,--model rbc)): bracha | signed | \
                   tribe-bracha | tribe-signed.")
  in
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Tribe size (>= 4).") in
  let rounds =
    Arg.(value & opt int 2 & info [ "rounds" ] ~doc:"Broadcast instances.")
  in
  let adversary =
    Arg.(value & opt string "none"
         & info [ "adversary" ]
             ~doc:"$(b,none) | $(b,equivocate) (1 fault, must stay safe) | \
                   $(b,collude) (2 faults vs f=1, must be caught) (RBC \
                   model), or one $(b,sim --adversary) strategy \
                   $(b,NODE@STRATEGY[:ARG]) such as $(b,0@grief:0.9), \
                   $(b,0@censor:1) or $(b,0@reorder:2ms) (Sailfish model).")
  in
  let late_join =
    Arg.(value & flag
         & info [ "late-join" ]
             ~doc:"Hold the last node out until first quiescence; it rejoins \
                   via request_sync (RBC models).")
  in
  let crashes =
    Arg.(value & opt int 0
         & info [ "crashes" ] ~doc:"Crash/recover scheduling-action budget.")
  in
  let check_sparse_k =
    Arg.(value & opt (some int) None
         & info [ "sparse-k" ]
             ~doc:"Run the Sailfish model over sparse edges with this many \
                   sampled strong parents per vertex (default: dense).")
  in
  let exhaustive =
    Arg.(value & flag
         & info [ "exhaustive" ]
             ~doc:"Delay-bounded exhaustive DFS instead of random walks.")
  in
  let delay_budget =
    Arg.(value & opt int 2
         & info [ "delay-budget" ] ~doc:"Deviation credits per schedule (DFS).")
  in
  let window =
    Arg.(value & opt int 4
         & info [ "window" ] ~doc:"Oldest pending deliveries considered (DFS).")
  in
  let max_actions =
    Arg.(value & opt int 400 & info [ "max-actions" ] ~doc:"Depth cap per run (DFS).")
  in
  let no_dpor =
    Arg.(value & flag
         & info [ "no-dpor" ] ~doc:"Disable sleep-set partial-order reduction.")
  in
  let walks =
    Arg.(value & opt int 1000 & info [ "walks" ] ~doc:"Random walks to run.")
  in
  let steps =
    Arg.(value & opt int 400 & info [ "steps" ] ~doc:"Action cap per walk.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master seed for the walks.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a schedule file written by $(b,--schedule-out) \
                   (the spec is reconstructed from its metadata) and report \
                   the verdict.")
  in
  let schedule_out =
    Arg.(value & opt (some string) None
         & info [ "schedule-out" ] ~docv:"FILE"
             ~doc:"Write the minimized violating schedule for later \
                   $(b,--replay).")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the violating (or replayed) run's structured event \
                   trace as JSONL (same schema as $(b,sim --trace)).")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Explore message-delivery schedules of small protocol configs \
             (exhaustively or randomly) and check agreement, totality and \
             no-equivocation invariants; counterexamples are minimized and \
             replayable (docs/CHECKING.md)")
    Term.(
      const run $ model $ protocol $ n $ rounds $ adversary $ late_join
      $ crashes $ check_sparse_k $ exhaustive $ delay_budget $ window
      $ max_actions $ no_dpor $ walks $ steps $ seed $ replay $ schedule_out
      $ trace_out)

(* ------------------------------------------------------------------ *)
(* latency *)

let latency_cmd =
  let run delta_ms =
    List.iter
      (fun d ->
        Printf.printf "%-28s %d delta = %6.0f ms\n" (Latency_model.name d)
          (Latency_model.deltas d)
          (Latency_model.estimate_ms ~delta_ms d))
      Latency_model.all
  in
  let delta = Arg.(value & opt float 100.0 & info [ "delta" ] ~doc:"One-way delay (ms).") in
  Cmd.v
    (Cmd.info "latency" ~doc:"Good-case commit latency bounds by architecture")
    Term.(const run $ delta)

let () =
  let doc = "clan-based DAG BFT SMR (tribe-assisted reliable broadcast)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "clanbft" ~version:"0.1.0" ~doc)
          [
            sim_cmd;
            sweep_cmd;
            profile_cmd;
            analyze_cmd;
            check_cmd;
            clan_size_cmd;
            rbc_cmd;
            latency_cmd;
          ]))
