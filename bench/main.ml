(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md, a hot-path
   micro-benchmark suite, and a perf-regression section (BENCH_sim.json).

   Profiles (CLANBFT_BENCH environment variable, the only scale knob):
     quick — scaled-down sizes, ~30 s at two domains; CI smoke run.
     paper — the default: the paper's system sizes with trimmed load sweeps
             (the knee-revealing points); ~20-25 minutes on one core.
     full  — the complete 13-point sweeps of §7, plus the n=150/300/500
             perf rows and the n=150 profiled run; hours.

   Every simulation is a [Runner.spec] built by [scenario] and, unless it
   is measured (perf timings, traced analysis, global profiler), runs
   through [run_all]: uncached specs fan out across a Domain pool
   (--jobs N / CLANBFT_JOBS, default Domain.recommended_domain_count),
   results are cached by key, and any disagreement exits 1.

   Output discipline: stdout carries only deterministic tables — every
   simulation runs from a seed fixed by its scenario, so stdout is
   byte-identical at any --jobs width and diffable across runs.
   Wall-clock timings, progress lines and measured micro-benchmark
   numbers go to stderr (and, for the perf section, to BENCH_sim.json).

   Sections can be selected on the command line:
     dune exec bench/main.exe -- [--jobs N] table1 fig1 concrete fig5a \
       fig5b fig5c fig6 ablation-latency ablation-rbc faults recovery \
       metrics micro analysis profile attacks perf *)

open Clanbft
open Clanbft.Sim
module Rng = Util.Rng
module Pool = Util.Pool
module Json = Util.Json

type profile = Quick | Paper | Full

let profile =
  match Sys.getenv_opt "CLANBFT_BENCH" with
  | Some "quick" -> Quick
  | Some "full" -> Full
  | Some "paper" | None -> Paper
  | Some other ->
      Printf.eprintf "unknown CLANBFT_BENCH=%s (quick|paper|full)\n%!" other;
      exit 2

let profile_name = match profile with Quick -> "quick" | Paper -> "paper" | Full -> "full"

let section_header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Progress / timing output: stderr only, one atomic write per line so
   worker domains don't tear each other's lines. *)
let progress fmt =
  Printf.ksprintf
    (fun s ->
      prerr_string s;
      flush stderr)
    fmt

(* ------------------------------------------------------------------ *)
(* Worker pool: its width is set from --jobs / CLANBFT_JOBS before
   sections run. *)

let jobs = ref 1

let pool =
  lazy
    (progress "using %d worker domain(s)\n" !jobs;
     Pool.create ~jobs:!jobs ())

(* ------------------------------------------------------------------ *)
(* Scenarios: every simulation in the bench is a [Runner.spec] built here.
   A [seed] names the scenario and fixes its RNG, so a result does not
   depend on which other runs happen, on which domain, or in what order;
   without one the run keeps [Runner.default_spec]'s seed. Fields the
   constructor does not take (topology, faults, adversaries, the obs
   registry) are set with [{ (scenario ...) with ... }]. *)

let scenario ?(n = 16) ?(duration = 4.) ?(warmup = 1.) ?(scale = 1) ?seed
    protocol load =
  {
    Runner.default_spec with
    n;
    protocol;
    txns_per_proposal = load;
    txn_scale = scale;
    duration = Time.s duration;
    warmup = Time.s warmup;
    seed =
      Option.fold ~none:Runner.default_spec.seed ~some:Rng.seed_of_string seed;
  }

(* The agreement gate: a run whose replicas disagree ends the bench. *)
let check_agreement key (r : Runner.result) =
  if not r.agreement then begin
    Printf.eprintf "  AGREEMENT VIOLATED: %s\n%!" key;
    exit 1
  end

let result_cache : (string, Runner.result) Hashtbl.t = Hashtbl.create 64

(* The one run path for unmeasured simulations: the keyed specs not yet
   cached fan out across the pool, each result passes the agreement gate,
   and the results come back in input order. A key must name every spec
   field its section varies; sections read the same key back from the
   cache instead of re-running it. *)
let run_all runs =
  let todo = List.filter (fun (key, _) -> not (Hashtbl.mem result_cache key)) runs in
  if todo <> [] then begin
    let results, secs =
      wall (fun () ->
          Runner.run_many ~pool:(Lazy.force pool) (Array.of_list (List.map snd todo)))
    in
    List.iteri
      (fun i (key, _) ->
        let r = results.(i) in
        progress "    %-44s -> %8.1f kTPS  %7.1f ms\n" key r.Runner.throughput_ktps
          r.Runner.latency_mean_ms;
        check_agreement key r;
        Hashtbl.replace result_cache key r)
      todo;
    progress "  %d run(s), %.0fs wall\n" (List.length todo) secs
  end;
  List.map (fun (key, _) -> Hashtbl.find result_cache key) runs

(* ------------------------------------------------------------------ *)
(* Table 1: inter-region RTTs used by the simulator *)

let table1 () =
  section_header "Table 1. Ping latencies (ms) between GCP regions (simulator input)";
  let regions = Topology.gcp_regions in
  Printf.printf "%-24s" "Source \\ Destination";
  Array.iter (fun r -> Printf.printf "%10s" (String.sub r 0 (min 9 (String.length r)))) regions;
  print_newline ();
  Array.iteri
    (fun i row ->
      Printf.printf "%-24s" regions.(i);
      Array.iter (fun ms -> Printf.printf "%10.2f" ms) row;
      print_newline ())
    Topology.gcp_rtt_ms

(* ------------------------------------------------------------------ *)
(* Figure 1: clan size vs n at failure < 1e-9 *)

let fig1 () =
  section_header
    "Figure 1. Clan sizes ensuring an honest majority w.p. > 1 - 1e-9 (exact Eq. 1)";
  let threshold = Bigint.Rat.of_ints 1 1_000_000_000 in
  let max_n = match profile with Quick -> 400 | Paper | Full -> 1000 in
  Printf.printf "%8s %6s %10s %22s\n" "n" "f" "clan size" "failure probability";
  let rec go n =
    if n <= max_n then begin
      let f = Committee.default_f n in
      match Committee.min_clan_size ~n ~f ~threshold () with
      | Some nc ->
          let p = Committee.single_clan_failure ~n ~f ~nc in
          Printf.printf "%8d %6d %10d %22s\n%!" n f nc (Bigint.Rat.to_scientific p);
          go (n + 100)
      | None ->
          Printf.printf "%8d %6d %10s\n%!" n f "-";
          go (n + 100)
    end
  in
  go 100

(* ------------------------------------------------------------------ *)
(* §6.2 concrete numbers *)

let concrete () =
  section_header "Section 6.2: multi-clan dishonest-majority probabilities (exact)";
  let show ~n ~q ~paper =
    let f = Committee.default_f n in
    let nc = n / q in
    let p = Committee.multi_clan_failure ~n ~f ~q ~nc in
    Printf.printf
      "  n=%-4d f=%-4d q=%d (clans of %d): Pr[dishonest clan] = %s   (paper: %s)\n"
      n f q nc (Bigint.Rat.to_scientific p) paper
  in
  show ~n:150 ~q:2 ~paper:"4.015e-06";
  show ~n:387 ~q:3 ~paper:"1.11e-06";
  (* §7: clan sizes used in the experiments at failure ~1e-6. *)
  let th = Bigint.Rat.of_ints 1 1_000_000 in
  Printf.printf
    "\n  Experimental clan sizes at failure <= 1e-6 (paper used 32/60/80):\n";
  List.iter
    (fun n ->
      match Committee.min_clan_size ~n ~f:(Committee.default_f n) ~threshold:th () with
      | Some nc -> Printf.printf "  n=%-4d -> minimum nc=%d\n" n nc
      | None -> ())
    [ 50; 100; 150 ]

(* ------------------------------------------------------------------ *)
(* Figures 5a/5b/5c and 6: throughput vs latency, by protocol. Every
   (protocol, n, load) point is one run seeded from "protocol/n/load";
   its cache key adds the window and scale, which differ between
   profiles. *)

let fig5_sizes () =
  (* figure letter -> (title, n, clan size, multi-clan q option, loads,
     duration, warmup, scale) *)
  let paper_loads = [ 1; 32; 63; 125; 250; 500; 1000; 1500; 2000; 3000; 4000; 5000; 6000 ] in
  match profile with
  | Quick ->
      [
        ('a', ("Figure 5a (scaled: n=20, clan 13)", 20, 13, None, [ 500; 2000; 6000 ], 6.0, 2.0, 10));
        ('c', ("Figure 5c (scaled: n=30, clan 17, q=2)", 30, 17, Some 2, [ 500; 2000 ], 6.0, 2.0, 10));
      ]
  | Paper ->
      [
        ('a', ("Figure 5a (n=50, clan 32)", 50, 32, None, [ 125; 500; 1500; 3000; 6000 ], 6.0, 2.0, 25));
        ('b', ("Figure 5b (n=100, clan 60)", 100, 60, None, [ 500; 1500; 6000 ], 4.5, 1.5, 25));
        ('c', ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, [ 500; 1500 ], 3.0, 0.9, 50));
      ]
  | Full ->
      [
        ('a', ("Figure 5a (n=50, clan 32)", 50, 32, None, paper_loads, 10.0, 3.0, 10));
        ('b', ("Figure 5b (n=100, clan 60)", 100, 60, None, paper_loads, 10.0, 3.0, 10));
        ('c', ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, paper_loads, 10.0, 3.0, 25));
      ]

(* Figure [which]'s title, size, loads and per-protocol results in load
   order; [None] when the profile skips it. All points run in one batch. *)
let figure which =
  Option.map
    (fun (title, n, nc, multi, loads, duration, warmup, scale) ->
      let protocols =
        [ Runner.Full; Runner.Single_clan { nc } ]
        @ Option.fold ~none:[] ~some:(fun q -> [ Runner.Multi_clan { q } ]) multi
      in
      let point protocol load =
        let seed = Printf.sprintf "%s/%d/%d" (Runner.protocol_label protocol) n load in
        ( Printf.sprintf "%s/%gs/%gs/x%d" seed duration warmup scale,
          scenario ~n ~duration ~warmup ~scale ~seed protocol load )
      in
      let points = List.map (fun p -> (p, List.map (point p) loads)) protocols in
      ignore (run_all (List.concat_map snd points));
      (title, n, loads, List.map (fun (p, runs) -> (p, run_all runs)) points))
    (List.assoc_opt which (fig5_sizes ()))

let fig5 which () =
  match figure which with
  | None ->
      section_header
        (Printf.sprintf "Figure 5%c — throughput vs latency [%s profile]" which profile_name);
      Printf.printf "  skipped at the %s profile\n" profile_name
  | Some (title, _, loads, by_protocol) ->
      section_header
        (Printf.sprintf "%s — throughput vs latency [%s profile]" title profile_name);
      let width =
        List.fold_left
          (fun w (_, rs) ->
            List.fold_left (fun w (r : Runner.result) -> max w (String.length r.label)) w rs)
          26 by_protocol
      in
      List.iter
        (fun (protocol, rs) ->
          Printf.printf "\n  %s\n" (Runner.protocol_label protocol);
          Printf.printf "  %-*s %9s %12s %12s %10s %8s\n" width "protocol" "load/prop"
            "tput (kTPS)" "latency (ms)" "MB/s/node" "agree";
          List.iter2
            (fun load (r : Runner.result) ->
              Printf.printf "  %-*s %9d %12.1f %12.1f %10.1f %8b\n" width r.label load
                r.throughput_ktps r.latency_mean_ms r.mb_per_node_per_s r.agreement)
            loads rs)
        by_protocol;
      Printf.printf
        "\n  Expected shape (paper): Sailfish saturates first; single-clan reaches\n\
        \  higher throughput with lower latency";
      match by_protocol with
      | [ (_, sailfish); (_, single); (_, multi) ] ->
          Printf.printf
            "; multi-clan roughly doubles the\n  single-clan throughput at n=150.\n";
          (* The Fig. 5a-c story, checked mechanically at peak: single-clan
             beats Sailfish (payload leaves one uplink set, not every
             uplink), and multi-clan recovers proposer parallelism on top. *)
          let peak =
            List.fold_left (fun acc (r : Runner.result) -> Float.max acc r.throughput_ktps) 0.0
          in
          let sailfish = peak sailfish and single = peak single and multi = peak multi in
          Printf.printf
            "\n  Peak throughput: sailfish %.1f kTPS, single-clan %.1f kTPS, multi-clan %.1f kTPS\n"
            sailfish single multi;
          Printf.printf "  shape: single-clan > sailfish: %b; multi-clan > single-clan: %b\n"
            (single > sailfish) (multi > single)
      | _ -> Printf.printf ".\n"

(* Figure 6 re-presents the Figure 5c sweep as throughput vs input load. *)
let fig6 () =
  let _, n, loads, by_protocol = Option.get (figure 'c') in
  section_header
    (Printf.sprintf
       "Figure 6. Throughput vs transactions per proposal at n=%d [%s profile]" n
       profile_name);
  Printf.printf "  %-12s" "load";
  List.iter (fun (p, _) -> Printf.printf "%26s" (Runner.protocol_label p)) by_protocol;
  Printf.printf "\n";
  List.iteri
    (fun i load ->
      Printf.printf "  %-12d" load;
      List.iter
        (fun (_, rs) -> Printf.printf "%20.1f kTPS" (List.nth rs i).Runner.throughput_ktps)
        by_protocol;
      Printf.printf "\n%!")
    loads

(* ------------------------------------------------------------------ *)
(* Ablation A1: latency architecture comparison (§1, §8) *)

let ablation_latency () =
  section_header "Ablation A1. Good-case commit latency by architecture (units of delta)";
  List.iter
    (fun d ->
      Printf.printf "  %-28s %2d delta  (%6.0f ms at delta = 100 ms)\n"
        (Latency_model.name d) (Latency_model.deltas d)
        (Latency_model.estimate_ms ~delta_ms:100.0 d))
    Latency_model.all;
  (* Cross-check the 3-delta claim against the simulator: uniform topology,
     negligible payload, measure mean commit latency / delta. *)
  let delta_ms = 40.0 in
  let r =
    List.hd
      (run_all
         [
           ( "ablation-latency/sailfish-n10-uniform",
             { (scenario ~n:10 ~duration:8. ~warmup:2. Runner.Full 1) with
               topology = `Uniform delta_ms } );
         ])
  in
  Printf.printf
    "\n  Measured (simulated Sailfish, n=10, uniform delta=%.0f ms):\n\
    \  mean commit latency %.1f ms = %.2f delta  (leaders commit at 3delta,\n\
    \  non-leaders at 5delta; commit-by-ALL-replicas adds up to one more delta)\n"
    delta_ms r.latency_mean_ms
    (r.latency_mean_ms /. delta_ms);
  (* And the PoA-then-order architectures, measured end to end on the same
     simulator (benign case, Poisson-free fixed submission cadence). *)
  let measure_poa name params =
    let n = 10 in
    let topology = Topology.uniform ~n ~one_way_ms:delta_ms in
    let world =
      Poa_smr.create ~n ~params:{ params with Poa_smr.batch_interval = Time.ms (2.0 *. delta_ms) }
        ~topology ~net_config:{ Net.default_config with jitter = 0.0 }
        ~seed:5L ~payload_bytes:512 ()
    in
    let engine = Poa_smr.engine world in
    for i = 0 to 59 do
      Engine.schedule_at engine (Time.ms (float_of_int (50 * i))) (fun () ->
          Poa_smr.submit_payload world ~proposer:(i mod n))
    done;
    Engine.run ~until:(Time.s 12.) engine;
    Printf.printf "  %-28s measured %7.1f ms = %.2f delta  (%d payloads)\n" name
      (Poa_smr.mean_commit_latency_ms world)
      (Poa_smr.mean_commit_latency_ms world /. delta_ms)
      (Poa_smr.committed world)
  in
  Printf.printf "\n  PoA-then-order designs, same delta, measured:\n";
  measure_poa "straw-man (3-hop SMR)" Poa_smr.strawman;
  measure_poa "Arete-style (Jolteon, 5-hop)" Poa_smr.arete

(* ------------------------------------------------------------------ *)
(* Ablation A2: RBC primitives — rounds and bytes *)

let ablation_rbc () =
  section_header "Ablation A2. Reliable broadcast primitives (n=40, clan 16, 1 MB value)";
  let n = 40 in
  let clan = Array.init 16 (fun i -> i) in
  Printf.printf "  %-16s %14s %14s %12s\n" "protocol" "latency (ms)" "total MB" "messages";
  List.iter
    (fun protocol ->
      let w =
        Rbc_world.create ~topology:(Topology.gcp_table1 ~n) ~config:Net.default_config
          ~seed:13L ~clan protocol
      in
      Rbc.broadcast (Rbc_world.node w 0) ~round:1 (String.make 1_000_000 'x');
      Engine.run w.engine;
      Printf.printf "  %-16s %14.1f %14.2f %12d\n"
        (Rbc.protocol_name protocol)
        (Time.to_ms (Rbc_world.summary w).last)
        (float_of_int (Net.total_bytes w.net) /. 1e6)
        (Net.total_messages w.net))
    Rbc.[ Bracha; Signed_two_round; Tribe_bracha; Tribe_signed ];
  Printf.printf
    "\n  Tribe-assisted variants ship the payload to the clan only (16/40 nodes);\n\
    \  the signed variants finish one message round earlier.\n"

(* ------------------------------------------------------------------ *)
(* Ablation A3: behaviour under injected faults (adversary harness) *)

let faults () =
  section_header
    "Ablation A3. Tribe-assisted RBC and full SMR under injected faults";
  let n = 40 and nc = 16 in
  let clan = Committee.elect_balanced ~n ~nc in
  let fc = ((nc + 1) / 2) - 1 in
  let value = String.make 100_000 'x' in
  (* One Byzantine sender scenario per tribe protocol: the sender reveals
     the payload to the bare minimum f_c+1 clan members, and the network
     drops every ECHO addressed to one stiffed clan member — that member
     agrees on the digest via READYs/certificate with an empty echo table,
     the regression that used to stall its pull path forever. *)
  let rbc_scenario protocol behaviour plan_specs =
    let plan =
      match Faults.plan_of_specs ~rules:plan_specs () with
      | Ok p -> p
      | Error e -> failwith e
    in
    let w =
      Rbc_world.create ~topology:(Topology.gcp_table1 ~n) ~config:Net.default_config
        ~seed:911L ~clan ~byzantine:[ 0 ] ~plan protocol
    in
    Adversary.run ~sender:0 ~n ~clan ~protocol ~net:w.net ~round:1 behaviour;
    Engine.run ~until:(Time.s 30.) w.engine;
    let s = Rbc_world.summary w in
    Printf.printf "  %-16s %-22s %3d full %3d digest %5.0f ms%s\n"
      (Rbc.protocol_name protocol)
      (Adversary.behaviour_name behaviour)
      s.values s.digests (Time.to_ms s.last)
      (match w.injector with
      | None -> ""
      | Some i -> Printf.sprintf "  (%d msgs dropped)" (Faults.dropped i))
  in
  Printf.printf
    "  Byzantine sender 0, n=%d, clan %d (f_c=%d), 100 kB value, 30 s horizon:\n"
    n nc fc;
  List.iter
    (fun protocol ->
      rbc_scenario protocol
        (Adversary.Withhold { value; reveal = fc + 1 })
        [ Printf.sprintf "drop:kind=echo:dst=%d" clan.(nc - 1) ])
    Rbc.[ Tribe_bracha; Tribe_signed ];
  List.iter
    (fun protocol ->
      rbc_scenario protocol
        (Adversary.Equivocate_biased
           { value; decoy = String.make 100_000 'y'; decoys = 1 })
        [])
    Rbc.[ Bracha; Signed_two_round; Tribe_bracha; Tribe_signed ];
  (* Full-protocol run under a pre-GST partition plus lossy links: agreement
     must hold and the system must still commit after the partition heals. *)
  Printf.printf
    "\n  Single-clan SMR under a 2 s partition + 20%% proposal loss until 4 s:\n";
  let plan =
    match
      Faults.plan_of_specs
        ~rules:[ "drop=0.2:kind=val:until=4s" ]
        ~partitions:[ "0,1,2,3,4,5,6,7|8,9,10,11,12,13,14,15:until=2s" ]
        ()
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let r =
    List.hd
      (run_all
         [
           ( "faults/single-clan-partition-loss",
             { (scenario ~duration:10. ~warmup:4. (Runner.Single_clan { nc = 11 }) 100) with
               fault_plan = plan } );
         ])
  in
  Printf.printf "  %-26s -> %8.1f kTPS  %7.1f ms  agree=%b\n" r.label
    r.throughput_ktps r.latency_mean_ms r.agreement

(* ------------------------------------------------------------------ *)
(* Crash–recovery: WAL replay + state sync (docs/RECOVERY.md) *)

let recovery () =
  section_header
    "Crash-recovery — replica 3 crashes at 4 s, restarts from its WAL at 8 s";
  let obs = Obs.metrics_only () in
  let r =
    List.hd
      (run_all
         [
           ( "recovery-n16",
             {
               (scenario ~duration:12. ~warmup:2. ~seed:"recovery-n16"
                  (Runner.Single_clan { nc = 11 }) 200)
               with
               restarts =
                 [ { Faults.node = 3; crash_at = Time.s 4.; recover_at = Time.s 8. } ];
               obs = Some obs;
             } );
         ])
  in
  Printf.printf "  %-26s -> %8.1f kTPS  %7.1f ms  agree=%b\n" r.label
    r.throughput_ktps r.latency_mean_ms r.agreement;
  let fetched =
    Metrics.fold obs.Obs.metrics ~init:0 ~f:(fun acc ~name ~labels:_ v ->
        match (name, v) with
        | "recovery_rounds_fetched", Metrics.Counter_v c -> acc + c
        | _ -> acc)
  in
  Printf.printf "  state sync fetched %d rounds of certified vertices\n" fetched;
  List.iter
    (fun (node, c) ->
      Printf.printf "  post-recovery commits [replica %d]: %d\n" node c)
    r.post_recovery_commits;
  Printf.printf "  commit fingerprint: %#x\n" r.commit_fingerprint;
  if fetched = 0 || List.exists (fun (_, c) -> c = 0) r.post_recovery_commits
  then begin
    Printf.eprintf "  recovered replica made no post-recovery progress\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Metrics dumps: per-protocol observability registries (Fig. 5 companion) *)

let metrics_dir = "bench_metrics"

let sanitize_label label =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '_')
    label

let metrics () =
  section_header
    (Printf.sprintf
       "Metrics dumps — per-protocol registries under %s/ [%s profile]"
       metrics_dir profile_name);
  if not (Sys.file_exists metrics_dir) then Unix.mkdir metrics_dir 0o755;
  let n, nc, duration, warmup, load =
    match profile with
    | Quick -> (16, 11, 4.0, 1.0, 100)
    | Paper | Full -> (50, 32, 6.0, 2.0, 500)
  in
  let protocols = [ Runner.Full; Runner.Single_clan { nc }; Runner.Multi_clan { q = 2 } ] in
  (* Each run owns a private registry, so the three protocols fan out
     across the pool; rows print sequentially afterwards. *)
  let registries = List.map (fun protocol -> (protocol, Obs.metrics_only ())) protocols in
  let results =
    run_all
      (List.map
         (fun (protocol, obs) ->
           ( "metrics/" ^ Runner.protocol_label protocol,
             { (scenario ~n ~duration ~warmup protocol load) with obs = Some obs } ))
         registries)
  in
  List.iter2
    (fun (protocol, obs) (r : Runner.result) ->
      Printf.printf "\n  %-26s %8.1f kTPS  %7.1f ms  agree=%b\n"
        r.label r.throughput_ktps r.latency_mean_ms r.agreement;
      (* Per-kind byte breakdown: the numbers behind Fig. 5's bandwidth
         story — clan modes shift bytes from val (payload) to header-sized
         vertex/echo/ready traffic. *)
      Printf.printf "  %-12s %14s %12s %9s\n" "kind" "bytes" "messages" "share";
      let total = float_of_int (max 1 r.bytes_total) in
      let rows =
        Metrics.fold obs.Obs.metrics ~init:[] ~f:(fun acc ~name ~labels v ->
            match (name, labels, v) with
            | "net_bytes_by_kind", [ ("kind", k) ], Metrics.Counter_v b ->
                let msgs =
                  match
                    Metrics.find obs.Obs.metrics ~labels "net_messages_by_kind"
                  with
                  | Some (Metrics.Counter_v m) -> m
                  | _ -> 0
                in
                (k, b, msgs) :: acc
            | _ -> acc)
      in
      List.iter
        (fun (k, b, m) ->
          Printf.printf "  %-12s %14d %12d %8.1f%%\n" k b m
            (100.0 *. float_of_int b /. total))
        (List.sort (fun (_, a, _) (_, b, _) -> compare b a) rows);
      let path =
        Filename.concat metrics_dir
          (sanitize_label (Runner.protocol_label protocol) ^ ".metrics.json")
      in
      Metrics.write_json obs.Obs.metrics path;
      Printf.printf "  registry -> %s\n%!" path)
    registries results

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: hot-path throughput, measured once per process and
   read by both the [micro] section and the perf baseline (BENCH_sim.json). *)

(* ops/sec of [f] measured over at least [min_time] seconds, calling [f]
   in batches of [batch] between clock reads. *)
let ops_per_s ?(min_time = 0.3) ?(batch = 100) f =
  ignore (f ());
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < min_time do
    for _ = 1 to batch do
      ignore (f ())
    done;
    count := !count + batch;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int !count /. !elapsed

let measure_micros () =
  (* SHA-256 bulk throughput. *)
  let mb = String.make (1 lsl 20) '\xa7' in
  let hashes = ops_per_s ~batch:2 (fun () -> Crypto.Sha256.digest_string mb) in
  let sha_mb_s = hashes *. float_of_int (String.length mb) /. 1e6 in
  (* Signing over realistic ~64-byte signing strings, cycling 256 distinct
     messages like a broadcast's per-slot signing payloads. *)
  let kc = Crypto.Keychain.create ~seed:1L ~n:64 in
  let msgs =
    Array.init 256 (fun i -> Printf.sprintf "echo|%d|%d|%032d" (i mod 50) i i)
  in
  let i = ref 0 in
  let sign_ops =
    ops_per_s (fun () ->
        incr i;
        Crypto.Keychain.sign kc ~signer:(!i land 63) msgs.(!i land 255))
  in
  (* Codec round-trip ops. *)
  let echo =
    Msg.Echo
      {
        round = 1;
        source = 0;
        vertex_digest = Crypto.Digest32.hash_string "b";
        signer = 3;
        signature = Crypto.Keychain.sign kc ~signer:3 "x";
      }
  in
  let encoded = Codec.encode ~n:100 echo in
  let enc_ops = ops_per_s (fun () -> Codec.encode ~n:100 echo) in
  let dec_ops = ops_per_s (fun () -> Codec.decode ~n:100 encoded) in
  (* Net send path: price + enqueue + uplink accounting + delivery of a
     full-size Val carrying a 500-txn block, on the GCP topology. The
     engine drains between batches so memory stays flat. *)
  let n = 50 in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topology:(Topology.gcp_table1 ~n)
      ~config:Net.default_config ~size:(Msg.wire_size ~n) ~kind:Msg.tag
      ~rng:(Rng.create 7L) ()
  in
  for node = 0 to n - 1 do
    Net.set_handler net node (fun ~src:_ _ -> ())
  done;
  let txns =
    Array.init 500 (fun i -> Transaction.make ~id:i ~client:0 ~created_at:0 ())
  in
  let block = Block.make ~proposer:0 ~round:1 ~txns in
  let vertex =
    Vertex.make ~round:1 ~source:0 ~block_digest:(Block.digest block)
      ~strong_edges:[||] ~weak_edges:[||] ()
  in
  let val_msg =
    Msg.Val { vertex; block = Some block; signature = Crypto.Keychain.sign kc ~signer:0 "v" }
  in
  let sent = ref 0 in
  let send_ops =
    ops_per_s ~batch:1 (fun () ->
        for _ = 1 to 1000 do
          incr sent;
          Net.send net ~src:(!sent mod n) ~dst:((!sent + 1) mod n) val_msg
        done;
        Engine.run engine)
  in
  let send_ops = send_ops *. 1000.0 in
  (* Block construction (hashes its 100 txns), a cached binomial of the
     committee analysis, pricing a 6000-txn VAL, and one RNG draw. *)
  let txns_100 = Array.sub txns 0 100 in
  let block_ops = ops_per_s (fun () -> Block.make ~proposer:0 ~round:1 ~txns:txns_100) in
  let binomial_ops = ops_per_s (fun () -> Committee.binomial 500 166) in
  let big_block =
    Block.make ~proposer:0 ~round:1
      ~txns:(Array.init 6000 (fun i -> Transaction.make ~id:i ~client:0 ~created_at:0 ()))
  in
  let big_val =
    Msg.Val
      {
        vertex =
          Vertex.make ~round:1 ~source:0 ~block_digest:(Block.digest big_block)
            ~strong_edges:
              (Array.init 11 (fun i ->
                   { Vertex.round = 0; source = i; digest = Block.digest block }))
            ~weak_edges:[||] ();
        block = Some big_block;
        signature = Crypto.Keychain.sign kc ~signer:0 "v";
      }
  in
  let wire_ops = ops_per_s (fun () -> Msg.wire_size ~n:100 big_val) in
  let rng = Rng.create 99L in
  let rng_ops = ops_per_s (fun () -> Rng.int rng 1000) in
  [
    ("sha256_mb_per_s", sha_mb_s);
    ("sign_ops_per_s", sign_ops);
    ("encode_ops_per_s", enc_ops);
    ("decode_ops_per_s", dec_ops);
    ("net_send_ops_per_s", send_ops);
    ("block_make_ops_per_s", block_ops);
    ("binomial_cached_ops_per_s", binomial_ops);
    ("wire_size_val_ops_per_s", wire_ops);
    ("rng_int_ops_per_s", rng_ops);
  ]

let micro_suite = lazy (measure_micros ())

let micro () =
  section_header "Micro-benchmarks (hot-path ops/s, measured numbers on stderr)";
  let suite = Lazy.force micro_suite in
  (* Measured numbers vary run to run: stderr, like every other timing. *)
  List.iter (fun (name, v) -> progress "  %-26s %14.1f\n" name v) suite;
  (* Deterministic part for stdout: the suite composition. *)
  List.iter (fun (name, _) -> Printf.printf "  measured %s\n" name) suite

(* ------------------------------------------------------------------ *)
(* Perf section: the regression baseline (BENCH_sim.json).

   Pinned scenarios — identical across profiles — run sequentially (never
   through the pool: wall-clock and allocation numbers must not be
   polluted by concurrent domains), plus single-thread micro throughput
   measurements of the hot paths. Deterministic facts (events, commits,
   fingerprints) go to stdout; timings go to stderr and into the JSON. *)

let bench_sim_json = "BENCH_sim.json"

(* A perf scenario is named by its seed string. *)
let perf_scenario ?n ?duration ?warmup name protocol load =
  (name, scenario ?n ?duration ?warmup ~seed:name protocol load)

(* The four pinned n=16 scenarios: the fingerprinted determinism anchors,
   and the only ones traced for the analysis section (tracing an n=150 run
   would dominate the whole bench). *)
let pinned_perf_scenarios =
  [
    perf_scenario "sailfish-n16-load200" Runner.Full 200;
    perf_scenario "single-clan-n16-load400" (Runner.Single_clan { nc = 11 }) 400;
    perf_scenario "multi-clan-n16q2-load200" (Runner.Multi_clan { q = 2 }) 200;
    perf_scenario "sparse-n16-load200" (Runner.Sparse { k = 3 }) 200;
  ]

(* The n=150 dense run: a perf row and a profiled run at the full profile. *)
let sailfish_n150 =
  perf_scenario ~n:150 ~duration:1. ~warmup:0.25 "sailfish-n150-load200" Runner.Full 200

(* Scale scenarios ride in BENCH_sim.json behind the pinned quartet: n=50
   always (cheap enough for CI, catches fan-out regressions the n=16 runs
   under-weight), the dense-vs-sparse n=150 head-to-head plus the n=300
   dense and n=500 sparse stretch runs at the full profile. The stretch
   durations shrink with n: event volume grows with n^3 (echo fan-out),
   so the sim horizon is what keeps the wall time in minutes. *)
let perf_scenarios =
  pinned_perf_scenarios
  @ [
      perf_scenario ~n:50 ~duration:2. ~warmup:0.5 "sailfish-n50-load200" Runner.Full 200;
      perf_scenario ~n:50 ~duration:2. ~warmup:0.5 "sparse-n50-load200"
        (Runner.Sparse { k = 6 }) 200;
    ]
  @
  if profile = Full then
    [
      sailfish_n150;
      perf_scenario ~n:150 ~duration:1. ~warmup:0.25 "sparse-n150-load200"
        (Runner.Sparse { k = 8 }) 200;
      perf_scenario ~n:300 ~duration:0.5 ~warmup:0.1 "sailfish-n300-load200" Runner.Full 200;
      perf_scenario ~n:500 ~duration:0.4 ~warmup:0.1 "sparse-n500-load200"
        (Runner.Sparse { k = 9 }) 200;
    ]
  else []

(* Traced re-runs of the pinned perf scenarios, analyzed by the Analyze
   engine. Segment percentiles are simulated-time facts — fully
   deterministic, so they print to stdout and hard-gate in ci.sh
   alongside throughput. Lazy and shared: the [analysis] section and the
   BENCH_sim.json writer both consume it, but the traced runs happen at
   most once per process. *)
let analysis_rows =
  lazy
    (List.map
       (fun (name, spec) ->
         let obs = Obs.create () in
         let r, secs = wall (fun () -> Runner.run { spec with Runner.obs = Some obs }) in
         progress "  %-26s %6.2fs wall (traced, %d events)\n" name secs
           (Trace.length obs.Obs.trace);
         check_agreement name r;
         (name, Analyze.analyze (Trace.records obs.Obs.trace)))
       pinned_perf_scenarios)

let analysis () =
  section_header
    "Trace analysis — commit critical-path attribution over the perf scenarios";
  Printf.printf "  %-26s %-14s %9s %9s %9s\n" "scenario" "segment" "p50 ms"
    "p99 ms" "max ms";
  List.iter
    (fun (scenario_name, (rep : Analyze.report)) ->
      let row name (d : Analyze.dist) =
        Printf.printf "  %-26s %-14s %9.1f %9.1f %9.1f\n" scenario_name name
          (float_of_int d.Analyze.p50_us /. 1000.)
          (float_of_int d.Analyze.p99_us /. 1000.)
          (float_of_int d.Analyze.max_us /. 1000.)
      in
      List.iter
        (fun (seg, d) -> row (Analyze.segment_name seg) d)
        rep.Analyze.segments;
      row "end_to_end" rep.Analyze.e2e;
      Printf.printf "  %-26s %-14s %9d %9d\n" scenario_name "paths/stalls"
        rep.Analyze.e2e.Analyze.count
        (List.length rep.Analyze.stalls))
    (Lazy.force analysis_rows)

(* ------------------------------------------------------------------ *)
(* Self-profiler sweep — the pinned perf quartet re-run sequentially with
   the Prof sections enabled (plus the n=150 dense run at the full profile).
   Deterministic profiler facts — per-section call counts, allocated
   words, the heap census, the commit fingerprint — go to stdout and into
   BENCH_sim.json; wall-time attribution is a real-clock measurement and
   stays on stderr / in the [_ns]-suffixed JSON fields that determinism
   comparisons strip (see docs/PROFILING.md). Lazy and shared: the
   [profile] section prints the tables, the BENCH_sim.json writer embeds
   the rows, the profiled runs happen once. *)

type profiled_run = {
  pf_name : string;
  pf_fingerprint : int;
  pf_wall_s : float;
  pf_rows : Prof.row list;
  pf_census : (string * int) list;
}

let profile_scenarios =
  pinned_perf_scenarios @ if profile = Full then [ sailfish_n150 ] else []

let profile_rows =
  lazy
    (List.map
       (fun (name, spec) ->
         Gc.full_major ();
         Prof.reset ();
         Prof.set_enabled true;
         let r, secs = wall (fun () -> Runner.run spec) in
         Prof.set_enabled false;
         let rows = Prof.report () in
         progress "  %-26s %6.2fs wall (profiled, %d sections)\n" name secs
           (List.length rows);
         check_agreement name r;
         {
           pf_name = name;
           pf_fingerprint = r.Runner.commit_fingerprint;
           pf_wall_s = secs;
           pf_rows = rows;
           pf_census = r.Runner.census;
         })
       profile_scenarios)

let top_by_self k rows =
  List.filteri
    (fun i _ -> i < k)
    (List.sort (fun a b -> compare b.Prof.self_ns a.Prof.self_ns) rows)

let profile_section () =
  section_header
    "Self-profiler — phase/allocation attribution over the pinned scenarios";
  List.iter
    (fun pf ->
      Printf.printf "\n  %s  (fingerprint %#x)\n" pf.pf_name pf.pf_fingerprint;
      Printf.printf "  %-18s %12s %14s %12s\n" "section" "calls" "minor words"
        "major words";
      List.iter
        (fun (r : Prof.row) ->
          Printf.printf "  %-18s %12d %14d %12d\n" r.Prof.name r.Prof.calls
            r.Prof.self_minor_words r.Prof.self_major_words)
        pf.pf_rows;
      List.iter
        (fun (name, words) ->
          Printf.printf "  %-18s %12s %14d   census words\n" name "" words)
        pf.pf_census;
      (* The ranking is by exclusive wall time — machine-dependent, so it
         goes to stderr with the other timings. *)
      List.iteri
        (fun i (r : Prof.row) ->
          progress "  top%d by self time: %-18s %10.1f ms self\n" (i + 1)
            r.Prof.name
            (float_of_int r.Prof.self_ns /. 1e6))
        (top_by_self 3 pf.pf_rows))
    (Lazy.force profile_rows)

(* ------------------------------------------------------------------ *)
(* Attack corpus — every Strategy kind against three protocol shapes
   (dense Sailfish, sparse edges, single-clan tribe), with a benign
   same-seed baseline per shape so the degradation ratios isolate the
   attack. Lazy and shared: the [attacks] section prints the table, the
   BENCH_sim.json writer embeds the rows, the runs happen once. *)

let attack_protocols =
  [
    ("dense", Runner.Full);
    ("sparse", Runner.Sparse { k = 3 });
    ("tribe", Runner.Single_clan { nc = 11 });
  ]

(* Name, DSL spec(s), and whether the run needs a crash–recovery victim
   (sync_storm preys on a recovering replica's state sync). Node 3 is a
   clan member under every shape (balanced election takes ids 0..nc-1),
   so the same adversary id works across the corpus. *)
let attack_corpus =
  [
    ("equivocate", [ "3@equivocate" ], false);
    ("censor", [ "3@censor:0" ], false);
    ("grief", [ "3@grief:0.8" ], false);
    ("sync_storm", [ "2@storm:16" ], true);
    ("reorder", [ "3@reorder:2ms" ], false);
  ]

let attack_restart =
  [ { Faults.node = 5; crash_at = Time.s 1.5; recover_at = Time.s 2.5 } ]

(* Benign baselines come in two flavours: plain, and with the same
   restart schedule the sync_storm run carries — so the storm's ratio
   measures the amplification, not the crash. *)
let attack_baseline_of restart = if restart then "benign+restart" else "benign"

type attack_cell = {
  ac_attack : string;
  ac_protocol : string;
  ac_result : Runner.result;
  ac_base : Runner.result option;  (** [None] on the baseline rows *)
}

let attack_rows =
  lazy
    (let runs =
       List.concat_map
         (fun (pname, protocol) ->
           let run aname ~restart dsl =
             let adversaries =
               match Strategy.of_specs dsl with Ok l -> l | Error e -> failwith e
             in
             ( (aname, pname),
               ( Printf.sprintf "attacks/%s/%s" pname aname,
                 {
                   (scenario ~seed:("attacks-" ^ pname) protocol 200) with
                   adversaries;
                   restarts = (if restart then attack_restart else []);
                 } ) )
           in
           run "benign" ~restart:false []
           :: run "benign+restart" ~restart:true []
           :: List.map (fun (aname, dsl, restart) -> run aname ~restart dsl) attack_corpus)
         attack_protocols
     in
     let tagged =
       List.map2 (fun ((a, p), _) r -> (a, p, r)) runs (run_all (List.map snd runs))
     in
     let baseline name pname =
       List.find_map
         (fun (a, p, r) -> if a = name && p = pname then Some r else None)
         tagged
     in
     List.map
       (fun (aname, pname, r) ->
         let base =
           match
             List.find_opt (fun (a, _, _) -> a = aname) attack_corpus
           with
           | Some (_, _, restart) -> baseline (attack_baseline_of restart) pname
           | None -> None
         in
         { ac_attack = aname; ac_protocol = pname; ac_result = r; ac_base = base })
       tagged)

(* An attack row's (throughput, p50, p99) relative to its benign
   same-seed baseline; [None] on the baseline rows. *)
let attack_ratios c =
  Option.map
    (fun b ->
      let r = c.ac_result in
      ( r.Runner.throughput_ktps /. b.Runner.throughput_ktps,
        r.Runner.latency_p50_ms /. b.Runner.latency_p50_ms,
        r.Runner.latency_p99_ms /. b.Runner.latency_p99_ms ))
    c.ac_base

(* Degradation envelope: the most damage any attack may do relative to
   its baseline. Runs are deterministic, so a row outside it is a
   behaviour change, and the section fails rather than print it quietly. *)
let within_envelope (tput, p50, p99) =
  let inside lo hi x = x >= lo && x <= hi in
  inside 0.55 1.08 tput && inside 0.85 1.3 p50 && inside 0.85 3.2 p99

let attacks () =
  section_header
    "Attack corpus — strategic adversaries vs benign same-seed baselines (n=16)";
  Printf.printf "  %-8s %-15s %8s %8s %8s %6s %6s %6s %6s\n" "protocol"
    "attack" "kTPS" "p50 ms" "p99 ms" "tput x" "p50 x" "p99 x" "agree";
  List.iter
    (fun c ->
      let r = c.ac_result in
      let ratios = attack_ratios c in
      (match ratios with
      | None ->
          Printf.printf "  %-8s %-15s %8.1f %8.1f %8.1f %6s %6s %6s %6b\n"
            c.ac_protocol c.ac_attack r.Runner.throughput_ktps
            r.Runner.latency_p50_ms r.Runner.latency_p99_ms "-" "-" "-"
            r.Runner.agreement
      | Some (tput, p50, p99) ->
          Printf.printf "  %-8s %-15s %8.1f %8.1f %8.1f %6.2f %6.2f %6.2f %6b\n"
            c.ac_protocol c.ac_attack r.Runner.throughput_ktps
            r.Runner.latency_p50_ms r.Runner.latency_p99_ms tput p50 p99
            r.Runner.agreement);
      if r.Runner.committed_txns = 0 then begin
        Printf.eprintf "  LIVENESS LOST under %s/%s\n" c.ac_protocol
          c.ac_attack;
        exit 1
      end;
      match ratios with
      | Some ((tput, p50, p99) as x) when not (within_envelope x) ->
          Printf.eprintf
            "  DEGRADATION ENVELOPE BREACHED under %s/%s: tput x%.3f p50 x%.3f \
             p99 x%.3f\n"
            c.ac_protocol c.ac_attack tput p50 p99;
          exit 1
      | _ -> ())
    (Lazy.force attack_rows)

(* One timed perf run: its result, wall time and GC word deltas. *)
type perf_run = {
  pr_name : string;
  pr_spec : Runner.spec;
  pr_result : Runner.result;
  pr_wall_s : float;
  pr_minor : float;
  pr_major : float;
  pr_promoted : float;
  pr_live : int;
  pr_top : int;
}

let perf () =
  section_header
    (Printf.sprintf "Perf baseline — pinned scenarios + hot-path micros -> %s"
       bench_sim_json);
  Printf.printf "  %-26s %4s %6s %10s %12s %12s %8s %18s\n" "scenario" "n" "load"
    "committed" "events" "dispatched" "agree" "fingerprint";
  let measured =
    List.map
      (fun (name, spec) ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let r, secs = wall (fun () -> Runner.run spec) in
        let g1 = Gc.quick_stat () in
        check_agreement name r;
        let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
        let major = g1.Gc.major_words -. g0.Gc.major_words in
        let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
        (* Heap footprint: live words retained once the run's garbage is
           collected (the run's data structures plus anything cached so
           far), and the process peak. [Gc.stat] — not [quick_stat], which
           reports live_words as 0. top_heap_words is monotone across
           scenarios, so only its first growth is attributable. *)
        Gc.full_major ();
        let heap = Gc.stat () in
        let live = heap.Gc.live_words and top = heap.Gc.top_heap_words in
        let events_per_s = float_of_int r.Runner.events /. secs in
        progress
          "  %-26s %6.2fs wall  %9.0f events/s  minor %11.0f w  major %10.0f \
           w  live %9d w  top %9d w\n"
          name secs events_per_s minor major live top;
        Printf.printf "  %-26s %4d %6d %10d %12d %12d %8b %#18x\n" name spec.Runner.n
          spec.Runner.txns_per_proposal r.Runner.committed_txns r.Runner.events
          r.Runner.dispatched r.Runner.agreement r.Runner.commit_fingerprint;
        {
          pr_name = name;
          pr_spec = spec;
          pr_result = r;
          pr_wall_s = secs;
          pr_minor = minor;
          pr_major = major;
          pr_promoted = promoted;
          pr_live = live;
          pr_top = top;
        })
      perf_scenarios
  in
  let micros = Lazy.force micro_suite in
  (* Tracing overhead: traced vs untraced same-seed wall ratio for the
     first pinned scenario, measured back-to-back so GC and code-cache
     state are comparable. The ratio rides in the micro object; being a
     wall-clock fact, the detail line goes to stderr. *)
  let trace_overhead =
    let name, spec = List.hd perf_scenarios in
    Gc.full_major ();
    let plain, plain_s = wall (fun () -> Runner.run spec) in
    Gc.full_major ();
    let obs = Obs.create () in
    let traced, traced_s = wall (fun () -> Runner.run { spec with Runner.obs = Some obs }) in
    if plain.Runner.commit_fingerprint <> traced.Runner.commit_fingerprint
    then begin
      Printf.eprintf "  TRACING CHANGED THE RUN on %s\n" name;
      exit 1
    end;
    let ratio = traced_s /. plain_s in
    progress "  trace overhead (%s): %.2fs untraced, %.2fs traced, x%.3f\n"
      name plain_s traced_s ratio;
    ratio
  in
  let micros = micros @ [ ("trace_overhead", trace_overhead) ] in
  List.iter
    (fun (k, v) -> progress "  %-26s %14.1f\n" k v)
    micros;
  (* The profiler must be pure observation: a profiled run's commit
     fingerprint must match the plain perf run of the same scenario. *)
  let profiled = Lazy.force profile_rows in
  List.iter
    (fun pf ->
      match List.find_opt (fun m -> m.pr_name = pf.pf_name) measured with
      | Some { pr_result = r; _ } ->
          if r.Runner.commit_fingerprint <> pf.pf_fingerprint then begin
            Printf.eprintf "  PROFILER PERTURBED %s: %#x <> %#x\n" pf.pf_name
              r.Runner.commit_fingerprint pf.pf_fingerprint;
            exit 1
          end
      | None -> ())
    profiled;
  (* BENCH_sim.json *)
  let str s = Json.String s and int i = Json.Int i and float f = Json.Float f in
  (* GC word counts are integral even though [Gc] reports floats. *)
  let words w = Json.Int (int_of_float w) in
  let fingerprint fp = Json.String (Printf.sprintf "%#x" fp) in
  let scenario m =
    let r = m.pr_result in
    Json.Obj
      [
        ("name", str m.pr_name);
        ("protocol", str (Runner.protocol_label m.pr_spec.Runner.protocol));
        ("n", int m.pr_spec.Runner.n);
        ("load", int m.pr_spec.Runner.txns_per_proposal);
        ("sim_duration_s", float (Time.to_s m.pr_spec.Runner.duration));
        ("wall_s", float m.pr_wall_s);
        ("events", int r.events);
        ("dispatched", int r.dispatched);
        ("events_per_s", float (float_of_int r.events /. m.pr_wall_s));
        ("minor_words", words m.pr_minor);
        ("major_words", words m.pr_major);
        ("promoted_words", words m.pr_promoted);
        ("live_words", int m.pr_live);
        ("top_heap_words", int m.pr_top);
        ("committed_txns", int r.committed_txns);
        ("throughput_ktps", float r.throughput_ktps);
        ("latency_mean_ms", float r.latency_mean_ms);
        ("agreement", Json.Bool r.agreement);
        ("commit_fingerprint", fingerprint r.commit_fingerprint);
      ]
  in
  let analysis (name, (rep : Analyze.report)) =
    ( name,
      Json.Obj
        [
          ("e2e", Analyze.dist_json rep.Analyze.e2e);
          ( "segments",
            Json.Obj
              (List.map
                 (fun (seg, d) -> (Analyze.segment_name seg, Analyze.dist_json d))
                 rep.Analyze.segments) );
          ("stalls", int (List.length rep.Analyze.stalls));
        ] )
  in
  (* Self-profiler rows: calls/words/census are deterministic per seed;
     every [_ns]-suffixed key is wall-clock and must be stripped before
     comparisons (docs/PROFILING.md). *)
  let profiler pf =
    ( pf.pf_name,
      Json.Obj
        [
          ("commit_fingerprint", fingerprint pf.pf_fingerprint);
          ("wall_ns", int (int_of_float (pf.pf_wall_s *. 1e9)));
          ( "top_by_self_ns",
            Json.List
              (List.map (fun (r : Prof.row) -> str r.Prof.name) (top_by_self 3 pf.pf_rows))
          );
          ( "sections",
            Json.Obj
              (List.map
                 (fun (r : Prof.row) ->
                   ( r.Prof.name,
                     Json.Obj
                       [
                         ("calls", int r.Prof.calls);
                         ("self_minor_words", int r.Prof.self_minor_words);
                         ("self_major_words", int r.Prof.self_major_words);
                         ("self_ns", int r.Prof.self_ns);
                         ("incl_ns", int r.Prof.incl_ns);
                       ] ))
                 pf.pf_rows) );
          ("census", Json.Obj (List.map (fun (name, w) -> (name, int w)) pf.pf_census));
        ] )
  in
  let attack c =
    let r = c.ac_result in
    let ratios =
      match attack_ratios c with
      | None -> []
      | Some (tput, p50, p99) ->
          [ ("tput_ratio", float tput); ("p50_ratio", float p50); ("p99_ratio", float p99) ]
    in
    Json.Obj
      ([
         ("attack", str c.ac_attack);
         ("protocol", str c.ac_protocol);
         ("throughput_ktps", float r.Runner.throughput_ktps);
         ("p50_ms", float r.Runner.latency_p50_ms);
         ("p99_ms", float r.Runner.latency_p99_ms);
       ]
      @ ratios
      @ [
          ("agreement", Json.Bool r.Runner.agreement);
          ("commit_fingerprint", fingerprint r.Runner.commit_fingerprint);
        ])
  in
  let doc =
    Json.Obj
      [
        ("schema", str "clanbft/bench-sim/v3");
        ("profile", str profile_name);
        ("jobs", int (Pool.jobs (Lazy.force pool)));
        ("scenarios", Json.List (List.map scenario measured));
        ("micro", Json.Obj (List.map (fun (k, v) -> (k, float v)) micros));
        ("analysis", Json.Obj (List.map analysis (Lazy.force analysis_rows)));
        ("profiler", Json.Obj (List.map profiler profiled));
        ("attacks", Json.List (List.map attack (Lazy.force attack_rows)));
      ]
  in
  let oc = open_out bench_sim_json in
  output_string oc (Json.pretty doc);
  close_out oc;
  Printf.printf "\n  wrote %s\n" bench_sim_json

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig1", fig1);
    ("concrete", concrete);
    ("fig5a", fig5 'a');
    ("fig5b", fig5 'b');
    ("fig5c", fig5 'c');
    ("fig6", fig6);
    ("ablation-latency", ablation_latency);
    ("ablation-rbc", ablation_rbc);
    ("faults", faults);
    ("recovery", recovery);
    ("metrics", metrics);
    ("micro", micro);
    ("analysis", analysis);
    ("profile", profile_section);
    ("attacks", attacks);
    ("perf", perf);
  ]

let () =
  let rec parse_args jobs names = function
    | [] -> (jobs, List.rev names)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> parse_args (Some j) names rest
        | _ ->
            Printf.eprintf "--jobs: expected a positive integer, got %S\n" v;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs: missing value\n";
        exit 2
    | arg :: rest when String.starts_with ~prefix:"--jobs=" arg ->
        let v = String.sub arg 7 (String.length arg - 7) in
        parse_args jobs names ("--jobs" :: v :: rest)
    | name :: rest -> parse_args jobs (name :: names) rest
  in
  let requested_jobs, requested =
    parse_args None [] (List.tl (Array.to_list Sys.argv))
  in
  (* Resolve the width now: a malformed CLANBFT_JOBS should fail before
     any simulation runs, not when the lazy pool is first forced. *)
  (jobs :=
     match requested_jobs with
     | Some j -> j
     | None -> (
         try Pool.default_jobs ()
         with Invalid_argument msg ->
           Printf.eprintf "%s\n" msg;
           exit 2));
  (* A section named twice runs once: sections reading run registries
     (metrics, recovery) would otherwise meet cached results with fresh,
     empty registries. *)
  let requested =
    match requested with
    | [] -> List.map fst sections
    | names ->
        List.rev
          (List.fold_left
             (fun acc name -> if List.mem name acc then acc else name :: acc)
             [] names)
  in
  (* Every name is checked before any section runs: a typo must not cost
     the sections listed before it, nor pass as success. *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then begin
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat ", " (List.map fst sections));
        exit 2
      end)
    requested;
  Printf.printf "clanbft benchmark harness — profile: %s\n" profile_name;
  Printf.printf "(set CLANBFT_BENCH=quick|paper|full to change scope)\n";
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> List.assoc name sections ()) requested;
  progress "\nTotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool)
