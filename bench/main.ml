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

let scenario ?(n = 16) ?(duration = 4.) ?(warmup = 1.) ?seed protocol load =
  {
    Runner.default_spec with
    n;
    protocol;
    txns_per_proposal = load;
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

let run_one key spec = List.hd (run_all [ (key, spec) ])

(* ------------------------------------------------------------------ *)
(* Rows and tables. A row is a JSON object's fields, computed once: the
   tables below render rows, and BENCH_sim.json embeds the same rows. *)

type align = Left | Right

(* How a table shows one field of its rows: a float prints [prec]
   decimals. *)
type column = { key : string; header : string; width : int; align : align; prec : int }

let col ?(align = Right) ?(prec = 1) key header width = { key; header; width; align; prec }

(* The fields tables show and BENCH_sim.json records, each key spelled
   here once; a table adjusts a header or a width with [{ c with ... }]. *)
module C = struct
  let name = col ~align:Left "name" "scenario" 26
  let protocol = col ~align:Left "protocol" "protocol" 8
  let attack = col ~align:Left "attack" "attack" 15
  let n = col "n" "n" 4
  let load = col "load" "load" 6
  let wall = col ~prec:2 "wall_s" "wall s" 8
  let committed = col "committed_txns" "committed" 10
  let events = col "events" "events" 12
  let dispatched = col "dispatched" "dispatched" 12
  let tput = col "throughput_ktps" "kTPS" 8
  let latency = col "latency_mean_ms" "latency (ms)" 12
  let p50 = col "p50_ms" "p50 ms" 8
  let p99 = col "p99_ms" "p99 ms" 8
  let tput_x = col ~prec:2 "tput_ratio" "tput x" 6
  let p50_x = col ~prec:2 "p50_ratio" "p50 x" 6
  let p99_x = col ~prec:2 "p99_ratio" "p99 x" 6
  let agree = col "agreement" "agree" 8
  let fingerprint = col "commit_fingerprint" "fingerprint" 18
  let calls = col "calls" "calls" 12
  let minor = col "self_minor_words" "minor words" 14
  let major = col "self_major_words" "major words" 12
end

(* A cell's text: [Null] is "-" and a missing field leaves it blank. *)
let cell c row =
  match List.assoc_opt c.key row with
  | None -> ""
  | Some Json.Null -> "-"
  | Some (Json.Float f) -> Printf.sprintf "%.*f" c.prec f
  | Some (Json.String s) -> s
  | Some v -> Json.to_string v

(* The one table renderer: a header line (unless [~header:false]), then a
   line per row, two spaces in, one space between columns, trailing
   blanks trimmed. *)
let print_table ?(header = true) columns rows =
  let pad c s =
    let fill = String.make (max 0 (c.width - String.length s)) ' ' in
    match c.align with Left -> s ^ fill | Right -> fill ^ s
  in
  let line cells =
    let s = String.concat " " (List.map2 pad columns cells) in
    let rec used i = if i > 0 && s.[i - 1] = ' ' then used (i - 1) else i in
    Printf.printf "  %s\n" (String.sub s 0 (used (String.length s)))
  in
  if header then line (List.map (fun c -> c.header) columns);
  List.iter (fun row -> line (List.map (fun c -> cell c row) columns)) rows

let fingerprint_json fp = Json.String (Printf.sprintf "%#x" fp)

(* The fields every simulation's row carries. *)
let result_fields (r : Runner.result) =
  [
    (C.committed.key, Json.Int r.committed_txns);
    (C.events.key, Json.Int r.events);
    (C.dispatched.key, Json.Int r.dispatched);
    (C.tput.key, Json.Float r.throughput_ktps);
    (C.latency.key, Json.Float r.latency_mean_ms);
    (C.p50.key, Json.Float r.latency_p50_ms);
    (C.p99.key, Json.Float r.latency_p99_ms);
    (C.agree.key, Json.Bool r.agreement);
    (C.fingerprint.key, fingerprint_json r.commit_fingerprint);
  ]

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
   its cache key adds the window, which differs between profiles. *)

let fig5_sizes () =
  (* figure letter -> (title, n, clan size, multi-clan q option, loads,
     duration, warmup) *)
  let paper_loads = [ 1; 32; 63; 125; 250; 500; 1000; 1500; 2000; 3000; 4000; 5000; 6000 ] in
  match profile with
  | Quick ->
      [
        ('a', ("Figure 5a (scaled: n=20, clan 13)", 20, 13, None, [ 500; 2000; 6000 ], 6.0, 2.0));
        ('c', ("Figure 5c (scaled: n=30, clan 17, q=2)", 30, 17, Some 2, [ 500; 2000 ], 6.0, 2.0));
      ]
  | Paper ->
      [
        ('a', ("Figure 5a (n=50, clan 32)", 50, 32, None, [ 125; 500; 1500; 3000; 6000 ], 6.0, 2.0));
        ('b', ("Figure 5b (n=100, clan 60)", 100, 60, None, [ 500; 1500; 6000 ], 4.5, 1.5));
        ('c', ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, [ 500; 1500 ], 3.0, 0.9));
      ]
  | Full ->
      [
        ('a', ("Figure 5a (n=50, clan 32)", 50, 32, None, paper_loads, 10.0, 3.0));
        ('b', ("Figure 5b (n=100, clan 60)", 100, 60, None, paper_loads, 10.0, 3.0));
        ('c', ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, paper_loads, 10.0, 3.0));
      ]

(* Figure [which]'s title, size, loads and per-protocol results in load
   order; [None] when the profile skips it. All points run in one batch. *)
let figure which =
  Option.map
    (fun (title, n, nc, multi, loads, duration, warmup) ->
      let protocols =
        [ Runner.Full; Runner.Single_clan { nc } ]
        @ Option.fold ~none:[] ~some:(fun q -> [ Runner.Multi_clan { q } ]) multi
      in
      let point protocol load =
        let seed = Printf.sprintf "%s/%d/%d" (Runner.protocol_label protocol) n load in
        ( Printf.sprintf "%s/%gs/%gs" seed duration warmup,
          scenario ~n ~duration ~warmup ~seed protocol load )
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
      let columns =
        [
          col ~align:Left "label" "protocol" width;
          { C.load with header = "load/prop"; width = 9 };
          { C.tput with header = "tput (kTPS)"; width = 12 };
          C.latency;
          col "mb_per_node_per_s" "MB/s/node" 10;
          C.agree;
        ]
      in
      List.iter
        (fun (protocol, rs) ->
          Printf.printf "\n  %s\n" (Runner.protocol_label protocol);
          print_table columns
            (List.map2
               (fun load (r : Runner.result) ->
                 ("label", Json.String r.label)
                 :: (C.load.key, Json.Int load)
                 :: ("mb_per_node_per_s", Json.Float r.mb_per_node_per_s)
                 :: result_fields r)
               loads rs))
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
  let labels = List.map (fun (p, _) -> Runner.protocol_label p) by_protocol in
  print_table
    ({ C.load with align = Left; width = 12 } :: List.map (fun l -> col l l 24) labels)
    (List.mapi
       (fun i load ->
         (C.load.key, Json.Int load)
         :: List.map2
              (fun l (_, rs) ->
                let tput = (List.nth rs i).Runner.throughput_ktps in
                (l, Json.String (Printf.sprintf "%.1f kTPS" tput)))
              labels by_protocol)
       loads)

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
    run_one "ablation-latency/sailfish-n10-uniform"
      { (scenario ~n:10 ~duration:8. ~warmup:2. Runner.Full 1) with topology = `Uniform delta_ms }
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
  print_table
    [
      { C.protocol with width = 16 };
      col "latency_ms" "latency (ms)" 14;
      col ~prec:2 "total_mb" "total MB" 14;
      col "messages" "messages" 12;
    ]
    (List.map
       (fun protocol ->
         let w =
           Rbc_world.create ~topology:(Topology.gcp_table1 ~n) ~config:Net.default_config
             ~seed:13L ~clan protocol
         in
         Rbc.broadcast (Rbc_world.node w 0) ~round:1 (String.make 1_000_000 'x');
         Engine.run w.engine;
         [
           (C.protocol.key, Json.String (Rbc.protocol_name protocol));
           ("latency_ms", Json.Float (Time.to_ms (Rbc_world.summary w).last));
           ("total_mb", Json.Float (float_of_int (Net.total_bytes w.net) /. 1e6));
           ("messages", Json.Int (Net.total_messages w.net));
         ])
       Rbc.[ Bracha; Signed_two_round; Tribe_bracha; Tribe_signed ]);
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
  let rbc_scenario protocol kind plan_specs =
    let plan =
      match Faults.plan_of_specs ~rules:plan_specs () with
      | Ok p -> p
      | Error e -> failwith e
    in
    let w =
      Rbc_world.create ~topology:(Topology.gcp_table1 ~n) ~config:Net.default_config
        ~seed:911L ~clan ~adversaries:[ { Strategy.node = 0; kind } ] ~plan protocol
    in
    Rbc_world.broadcast w ~sender:0 ~round:1 value;
    Engine.run ~until:(Time.s 30.) w.engine;
    let s = Rbc_world.summary w in
    Printf.printf "  %-16s %-22s %3d full %3d digest %5.0f ms%s\n"
      (Rbc.protocol_name protocol)
      (Strategy.kind_name kind)
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
      rbc_scenario protocol Strategy.Withhold
        [ Printf.sprintf "drop:kind=echo:dst=%d" clan.(nc - 1) ])
    Rbc.[ Tribe_bracha; Tribe_signed ];
  List.iter
    (fun protocol -> rbc_scenario protocol Strategy.Equivocate [])
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
    run_one "faults/single-clan-partition-loss"
      { (scenario ~duration:10. ~warmup:4. (Runner.Single_clan { nc = 11 }) 100) with
        fault_plan = plan }
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
    run_one "recovery-n16"
      {
        (scenario ~duration:12. ~warmup:2. ~seed:"recovery-n16"
           (Runner.Single_clan { nc = 11 }) 200)
        with
        restarts = [ { Faults.node = 3; crash_at = Time.s 4.; recover_at = Time.s 8. } ];
        obs = Some obs;
      }
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
      let total = float_of_int (max 1 r.bytes_total) in
      let kinds =
        Metrics.fold obs.Obs.metrics ~init:[] ~f:(fun acc ~name ~labels v ->
            match (name, labels, v) with
            | "net_bytes_by_kind", [ ("kind", k) ], Metrics.Counter_v b ->
                let msgs =
                  match Metrics.find obs.Obs.metrics ~labels "net_messages_by_kind" with
                  | Some (Metrics.Counter_v m) -> m
                  | _ -> 0
                in
                let share = Printf.sprintf "%.1f%%" (100.0 *. float_of_int b /. total) in
                ( b,
                  [
                    ("kind", Json.String k);
                    ("bytes", Json.Int b);
                    ("messages", Json.Int msgs);
                    ("share", Json.String share);
                  ] )
                :: acc
            | _ -> acc)
      in
      print_table
        [
          col ~align:Left "kind" "kind" 12;
          col "bytes" "bytes" 14;
          col "messages" "messages" 12;
          col "share" "share" 9;
        ]
        (List.map snd (List.sort (fun (a, _) (b, _) -> compare b a) kinds));
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

(* The one measured-run path (perf, analysis, profile): sequential, never
   pooled, so concurrent domains cannot pollute the timings. A full major
   collection first, so no earlier run's garbage is charged here; then the
   wall time, the agreement gate and a progress line. Returns the result,
   the wall time and the run's allocation as row fields. Minor words come
   from [Gc.minor_words], which is exact; [Gc.quick_stat]'s count only
   advances at a minor collection. *)
let measured_run kind (name, spec) =
  Gc.full_major ();
  let g0 = Gc.quick_stat () and m0 = Gc.minor_words () in
  let r, secs = wall (fun () -> Runner.run spec) in
  let g1 = Gc.quick_stat () and m1 = Gc.minor_words () in
  check_agreement name r;
  progress "  %-26s %6.2fs wall  %9.0f events/s  (%s)\n" name secs
    (float_of_int r.Runner.events /. secs)
    kind;
  (* GC word counts are integral even though [Gc] reports floats. *)
  let words f = Json.Int (int_of_float (f g1 -. f g0)) in
  ( r,
    secs,
    [
      ("minor_words", Json.Int (int_of_float (m1 -. m0)));
      ("major_words", words (fun g -> g.Gc.major_words));
      ("promoted_words", words (fun g -> g.Gc.promoted_words));
    ] )

(* Traced re-runs of the pinned perf scenarios, analyzed by the Analyze
   engine. Segment percentiles are simulated-time facts — fully
   deterministic, so they print to stdout. Lazy and shared: the
   [analysis] section prints the table rows, the BENCH_sim.json writer
   embeds the fields (with the fingerprint the tracing gate compares), and
   the traced runs happen at most once per process (tracing an n=150 run
   would dominate the whole bench). *)
let analysis_runs =
  lazy
    (List.map
       (fun (name, spec) ->
         let obs = Obs.create () in
         let r, secs, _ = measured_run "traced" (name, { spec with Runner.obs = Some obs }) in
         let rep = Analyze.analyze (Trace.records obs.Obs.trace) in
         let row segment p50 p99 rest =
           (C.name.key, Json.String name) :: ("segment", Json.String segment)
           :: (C.p50.key, p50) :: (C.p99.key, p99) :: rest
         in
         let dist segment (d : Analyze.dist) =
           let ms us = Json.Float (float_of_int us /. 1000.) in
           row segment (ms d.p50_us) (ms d.p99_us) [ ("max_ms", ms d.max_us) ]
         in
         let stalls = List.length rep.stalls in
         ( name,
           [
             (C.fingerprint.key, fingerprint_json r.commit_fingerprint);
             (C.wall.key, Json.Float secs);
             ("e2e", Analyze.dist_json rep.e2e);
             ( "segments",
               Json.Obj
                 (List.map
                    (fun (seg, d) -> (Analyze.segment_name seg, Analyze.dist_json d))
                    rep.segments) );
             ("stalls", Json.Int stalls);
           ],
           List.map (fun (seg, d) -> dist (Analyze.segment_name seg) d) rep.segments
           @ [
               dist "end_to_end" rep.e2e;
               row "paths/stalls" (Json.Int rep.e2e.count) (Json.Int stalls) [];
             ] ))
       pinned_perf_scenarios)

let analysis () =
  section_header
    "Trace analysis — commit critical-path attribution over the perf scenarios";
  print_table
    [
      C.name;
      col ~align:Left "segment" "segment" 14;
      { C.p50 with width = 9 };
      { C.p99 with width = 9 };
      col "max_ms" "max ms" 9;
    ]
    (List.concat_map (fun (_, _, rows) -> rows) (Lazy.force analysis_runs))

(* ------------------------------------------------------------------ *)
(* Self-profiler sweep — the pinned perf quartet re-run sequentially with
   the Prof sections enabled (plus the n=150 dense run at the full profile).
   Deterministic profiler facts — per-section call counts, allocated
   words, the heap census, the commit fingerprint — go to stdout and into
   BENCH_sim.json; wall-time attribution is a real-clock measurement and
   stays on stderr / in the [_ns]-suffixed JSON fields that determinism
   comparisons strip (see docs/PROFILING.md). Lazy and shared like the
   traced runs: each run yields its BENCH_sim.json fields, its section
   rows and its census rows. *)

let profile_scenarios =
  pinned_perf_scenarios @ if profile = Full then [ sailfish_n150 ] else []

let profile_runs =
  lazy
    (List.map
       (fun (name, spec) ->
         Prof.reset ();
         Prof.set_enabled true;
         let r, secs, _ = measured_run "profiled" (name, spec) in
         Prof.set_enabled false;
         let prof = Prof.report () in
         let top =
           List.filteri (fun i _ -> i < 3)
             (List.sort (fun (a : Prof.row) b -> compare b.self_ns a.self_ns) prof)
         in
         (* The ranking is by exclusive wall time — machine-dependent, so
            it goes to stderr with the other timings. *)
         List.iteri
           (fun i (p : Prof.row) ->
             progress "  top%d by self time: %-18s %10.1f ms self\n" (i + 1) p.name
               (float_of_int p.self_ns /. 1e6))
           top;
         let sections =
           List.map
             (fun (p : Prof.row) ->
               ( p.name,
                 [
                   (C.calls.key, Json.Int p.calls);
                   (C.minor.key, Json.Int p.self_minor_words);
                   (C.major.key, Json.Int p.self_major_words);
                   ("self_ns", Json.Int p.self_ns);
                   ("incl_ns", Json.Int p.incl_ns);
                 ] ))
             prof
         in
         let census = List.map (fun (k, w) -> (k, Json.Int w)) r.census in
         ( name,
           [
             (C.fingerprint.key, fingerprint_json r.commit_fingerprint);
             ("wall_ns", Json.Int (int_of_float (secs *. 1e9)));
             ( "top_by_self_ns",
               Json.List (List.map (fun (p : Prof.row) -> Json.String p.name) top) );
             ("sections", Json.Obj (List.map (fun (k, row) -> (k, Json.Obj row)) sections));
             ("census", Json.Obj census);
           ],
           ( List.map (fun (k, row) -> ("section", Json.String k) :: row) sections,
             List.map
               (fun (k, w) ->
                 [ ("section", Json.String k); ("words", w); ("unit", Json.String "census words") ])
               census ) ))
       profile_scenarios)

let profile_section () =
  section_header
    "Self-profiler — phase/allocation attribution over the pinned scenarios";
  let section = col ~align:Left "section" "section" 18 in
  List.iter
    (fun (name, fields, (sections, census)) ->
      Printf.printf "\n  %s  (fingerprint %s)\n" name (cell C.fingerprint fields);
      print_table [ section; C.calls; C.minor; C.major ] sections;
      (* A census row's words sit in the minor-words column. *)
      print_table ~header:false [ section; C.calls; col "words" "" 14; col "unit" "" 14 ] census)
    (Lazy.force profile_runs)

(* ------------------------------------------------------------------ *)
(* Attack corpus — every Strategy kind against three protocol shapes
   (dense Sailfish, sparse edges, single-clan tribe), with a benign
   same-seed baseline per shape so the degradation ratios isolate the
   attack. Lazy and shared: the [attacks] section prints the rows, the
   BENCH_sim.json writer embeds them, the runs happen once. *)

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

(* Degradation envelope: per ratio column, the metric it compares and the
   most damage any attack may do relative to its baseline. Runs are
   deterministic, so a row outside it is a behaviour change, and the bench
   fails rather than record it quietly. *)
let envelope =
  [
    (C.tput_x, (fun (r : Runner.result) -> r.throughput_ktps), 0.55, 1.08);
    (C.p50_x, (fun (r : Runner.result) -> r.latency_p50_ms), 0.85, 1.3);
    (C.p99_x, (fun (r : Runner.result) -> r.latency_p99_ms), 0.85, 3.2);
  ]

(* Each attack row carries its envelope ratios against its benign
   same-seed baseline, [Null] on the baseline rows. Baselines come in two
   flavours: plain, and with the restart schedule the sync_storm run
   carries, so the storm's ratio measures the amplification, not the
   crash. A run that commits nothing or leaves the envelope exits 1. *)
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
     let results = List.combine (List.map fst runs) (run_all (List.map snd runs)) in
     List.map
       (fun ((aname, pname), (r : Runner.result)) ->
         let fail what =
           Printf.eprintf "  %s under %s/%s\n" what pname aname;
           exit 1
         in
         if r.committed_txns = 0 then fail "LIVENESS LOST";
         let base =
           Option.map
             (fun (_, _, restart) ->
               List.assoc ((if restart then "benign+restart" else "benign"), pname) results)
             (List.find_opt (fun (a, _, _) -> a = aname) attack_corpus)
         in
         let ratio (c, metric, lo, hi) =
           match base with
           | None -> (c.key, Json.Null)
           | Some b ->
               let x = metric r /. metric b in
               if not (x >= lo && x <= hi) then
                 fail (Printf.sprintf "DEGRADATION ENVELOPE BREACHED (%s %.3f)" c.header x);
               (c.key, Json.Float x)
         in
         ((C.attack.key, Json.String aname) :: (C.protocol.key, Json.String pname)
          :: List.map ratio envelope)
         @ result_fields r)
       results)

let attacks () =
  section_header
    "Attack corpus — strategic adversaries vs benign same-seed baselines (n=16)";
  print_table
    [
      C.protocol; C.attack; C.tput; C.p50; C.p99; C.tput_x; C.p50_x; C.p99_x;
      { C.agree with width = 6 };
    ]
    (Lazy.force attack_rows)

(* ------------------------------------------------------------------ *)

(* Tracing and profiling must be pure observation: every traced and every
   profiled run commits exactly what the plain run of its scenario does. *)
let check_unperturbed what runs rows =
  List.iter
    (fun (name, fields, _) ->
      let fp = List.assoc C.fingerprint.key in
      match List.find_opt (fun row -> List.assoc C.name.key row = Json.String name) rows with
      | Some row when fp row <> fp fields ->
          Printf.eprintf "  %s CHANGED THE RUN of %s: %s <> %s\n" what name
            (Json.to_string (fp fields)) (Json.to_string (fp row));
          exit 1
      | _ -> ())
    runs

let perf () =
  section_header
    (Printf.sprintf "Perf baseline — pinned scenarios + hot-path micros -> %s"
       bench_sim_json);
  let rows =
    List.map
      (fun (name, (spec : Runner.spec)) ->
        let r, secs, words = measured_run "plain" (name, spec) in
        [
          (C.name.key, Json.String name);
          (C.protocol.key, Json.String (Runner.protocol_label spec.protocol));
          (C.n.key, Json.Int spec.n);
          (C.load.key, Json.Int spec.txns_per_proposal);
          ("sim_duration_s", Json.Float (Time.to_s spec.duration));
          (C.wall.key, Json.Float secs);
          ("events_per_s", Json.Float (float_of_int r.events /. secs));
        ]
        @ words @ result_fields r)
      perf_scenarios
  in
  print_table
    [ C.name; C.n; C.load; C.committed; C.events; C.dispatched; C.agree; C.fingerprint ]
    rows;
  let traced = Lazy.force analysis_runs and profiled = Lazy.force profile_runs in
  check_unperturbed "TRACING" traced rows;
  check_unperturbed "PROFILING" profiled rows;
  (* Tracing overhead: the traced over the plain wall time of the first
     pinned scenario. A wall-clock fact: it rides in the micro object and
     on stderr. *)
  let trace_overhead =
    let _, fields, _ = List.hd traced in
    match (List.assoc C.wall.key fields, List.assoc C.wall.key (List.hd rows)) with
    | Json.Float traced, Json.Float plain -> traced /. plain
    | _ -> nan
  in
  progress "  trace overhead (%s): x%.3f\n" (fst (List.hd perf_scenarios)) trace_overhead;
  let micros = Lazy.force micro_suite @ [ ("trace_overhead", trace_overhead) ] in
  let named runs = Json.Obj (List.map (fun (name, fields, _) -> (name, Json.Obj fields)) runs) in
  let objs rows = Json.List (List.map (fun row -> Json.Obj row) rows) in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "clanbft/bench-sim/v4");
        ("profile", Json.String profile_name);
        ("jobs", Json.Int (Pool.jobs (Lazy.force pool)));
        ("scenarios", objs rows);
        ("micro", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) micros));
        ("analysis", named traced);
        ("profiler", named profiled);
        ("attacks", objs (Lazy.force attack_rows));
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
