(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md, a bechamel
   micro-benchmark suite, and a perf-regression section (BENCH_sim.json).

   Profiles (CLANBFT_BENCH environment variable):
     quick — scaled-down sizes, ~2 minutes; CI smoke run.
     paper — the default: the paper's system sizes with trimmed load sweeps
             (the knee-revealing points); ~20-25 minutes on one core.
     full  — the complete 13-point sweeps of §7; hours.

   Parallelism: every (protocol × n × load) simulation point is an
   independent deterministic job; points fan out across a Domain pool
   (--jobs N / CLANBFT_JOBS, default Domain.recommended_domain_count).

   Output discipline: stdout carries only deterministic tables — every
   simulation point runs from a seed derived from its (protocol, n, load)
   key, so stdout is byte-identical at any --jobs width and diffable
   across runs. Wall-clock timings, progress lines and measured
   micro-benchmark numbers go to stderr (and, for the perf section, to
   BENCH_sim.json).

   Sections can be selected on the command line:
     dune exec bench/main.exe -- [--jobs N] [--paper-scale] table1 fig1 \
       concrete fig5a fig5b fig5c fig6 paper-scale ablation-latency \
       ablation-rbc faults recovery metrics micro analysis profile \
       attacks perf

   --paper-scale (or CLANBFT_PAPER_SCALE=1) unlocks the n=150 work: the
   paper-scale sweep section, the n=150 perf-baseline entry and the
   n=150 self-profiler run. *)

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

(* Paper-scale knob: the n=150 sweep and the n=150 perf-baseline entry are
   minutes of single-core work, so they only run when explicitly requested
   (--paper-scale or CLANBFT_PAPER_SCALE=1). The default quick profile
   stays CI-fast. *)
let paper_scale_enabled = ref (Sys.getenv_opt "CLANBFT_PAPER_SCALE" <> None)

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
(* Worker pool: set from --jobs / CLANBFT_JOBS before sections run. *)

let requested_jobs = ref None

let pool =
  lazy
    (let jobs =
       match !requested_jobs with Some j -> j | None -> Pool.default_jobs ()
     in
     progress "using %d worker domain(s)\n" jobs;
     Pool.create ~jobs ())

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
(* Figures 5a/5b/5c and 6: throughput vs latency, by protocol.

   Every (protocol, n, load) point is one independent simulation job.
   [prefetch] fans the uncached points of a figure out across the pool;
   the printing code then reads results from the cache in deterministic
   order. Each point derives its RNG seed from its own key, so a result
   does not depend on which domain (or in which order) computed it. *)

type point = {
  pn : int;
  pprotocol : Runner.protocol;
  pload : int;
  pduration : float;
  pwarmup : float;
  pscale : int;
}

let point_key p =
  Printf.sprintf "%s/%d/%d" (Runner.protocol_label p.pprotocol) p.pn p.pload

(* FNV-1a over the point key: a fixed, scheduling-independent seed per
   simulation point. *)
let point_seed key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  !h

let spec_of_point p =
  {
    Runner.default_spec with
    n = p.pn;
    protocol = p.pprotocol;
    txns_per_proposal = p.pload;
    txn_scale = p.pscale;
    duration = Time.s p.pduration;
    warmup = Time.s p.pwarmup;
    seed = point_seed (point_key p);
  }

let result_cache : (string, Runner.result) Hashtbl.t = Hashtbl.create 64

let compute_point p =
  let r, secs = wall (fun () -> Runner.run (spec_of_point p)) in
  progress "    %-26s load=%-5d -> %8.1f kTPS  %7.1f ms  [%4.0fs wall]\n"
    (Runner.protocol_label p.pprotocol)
    p.pload r.throughput_ktps r.latency_mean_ms secs;
  r

let prefetch points =
  let seen = Hashtbl.create 16 in
  let todo =
    List.filter
      (fun p ->
        let k = point_key p in
        if Hashtbl.mem result_cache k || Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      points
  in
  if todo <> [] then begin
    let todo = Array.of_list todo in
    let results = Pool.map (Lazy.force pool) compute_point todo in
    Array.iteri
      (fun i r -> Hashtbl.replace result_cache (point_key todo.(i)) r)
      results
  end

let run_point p =
  match Hashtbl.find_opt result_cache (point_key p) with
  | Some r -> r
  | None ->
      let r = compute_point p in
      Hashtbl.replace result_cache (point_key p) r;
      r

let print_figure_rows title points =
  Printf.printf "\n  %s\n" title;
  Printf.printf "  %-26s %8s %12s %12s %10s %8s\n" "protocol" "load/prop"
    "tput (kTPS)" "latency (ms)" "MB/s/node" "agree";
  List.iter
    (fun (r : Runner.result) ->
      Printf.printf "  %-26s %8s %12.1f %12.1f %10.1f %8b\n"
        r.label "" r.throughput_ktps r.latency_mean_ms r.mb_per_node_per_s r.agreement)
    points

let fig5_sizes () =
  (* (figure, n, clan size, multi-clan q option, loads, duration, warmup, scale) *)
  let paper_loads = [ 1; 32; 63; 125; 250; 500; 1000; 1500; 2000; 3000; 4000; 5000; 6000 ] in
  match profile with
  | Quick ->
      [
        ("Figure 5a (scaled: n=20, clan 13)", 20, 13, None, [ 500; 2000; 6000 ], 6.0, 2.0, 10);
        ("Figure 5c (scaled: n=30, clan 17, q=2)", 30, 17, Some 2, [ 500; 2000 ], 6.0, 2.0, 10);
      ]
  | Paper ->
      [
        ("Figure 5a (n=50, clan 32)", 50, 32, None, [ 125; 500; 1500; 3000; 6000 ], 6.0, 2.0, 25);
        ("Figure 5b (n=100, clan 60)", 100, 60, None, [ 500; 1500; 6000 ], 4.5, 1.5, 25);
        ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, [ 500; 1500 ], 3.0, 0.9, 50);
      ]
  | Full ->
      [
        ("Figure 5a (n=50, clan 32)", 50, 32, None, paper_loads, 10.0, 3.0, 10);
        ("Figure 5b (n=100, clan 60)", 100, 60, None, paper_loads, 10.0, 3.0, 10);
        ("Figure 5c (n=150, clan 80, q=2)", 150, 80, Some 2, paper_loads, 10.0, 3.0, 25);
      ]

let figure_protocols ~nc ~multi =
  [ Runner.Full; Runner.Single_clan { nc } ]
  @ (match multi with Some q -> [ Runner.Multi_clan { q } ] | None -> [])

let figure_points ~n ~protocols ~loads ~duration ~warmup ~scale =
  List.concat_map
    (fun protocol ->
      List.map
        (fun load ->
          {
            pn = n;
            pprotocol = protocol;
            pload = load;
            pduration = duration;
            pwarmup = warmup;
            pscale = scale;
          })
        loads)
    protocols

let fig5 which () =
  let sizes = fig5_sizes () in
  let idx = match which with `A -> 0 | `B -> 1 | `C -> 2 in
  if idx < List.length sizes then begin
    let title, n, nc, multi, loads, duration, warmup, scale = List.nth sizes idx in
    section_header
      (Printf.sprintf "%s — throughput vs latency [%s profile]" title profile_name);
    let protocols = figure_protocols ~nc ~multi in
    prefetch (figure_points ~n ~protocols ~loads ~duration ~warmup ~scale);
    List.iter
      (fun protocol ->
        let points =
          List.map
            (fun load ->
              run_point
                { pn = n; pprotocol = protocol; pload = load; pduration = duration;
                  pwarmup = warmup; pscale = scale })
            loads
        in
        print_figure_rows (Runner.protocol_label protocol) points)
      protocols;
    Printf.printf
      "\n  Expected shape (paper): Sailfish saturates first; single-clan reaches\n\
      \  higher throughput with lower latency; multi-clan roughly doubles the\n\
      \  single-clan throughput at n=150.\n"
  end

(* Figure 6 re-presents the Figure 5c sweep as throughput vs input load. *)
let fig6 () =
  let sizes = fig5_sizes () in
  let title, n, nc, multi, loads, duration, warmup, scale =
    List.nth sizes (List.length sizes - 1)
  in
  ignore title;
  section_header
    (Printf.sprintf
       "Figure 6. Throughput vs transactions per proposal at n=%d [%s profile]" n
       profile_name);
  let protocols = figure_protocols ~nc ~multi in
  prefetch (figure_points ~n ~protocols ~loads ~duration ~warmup ~scale);
  Printf.printf "  %-12s" "load";
  List.iter (fun p -> Printf.printf "%26s" (Runner.protocol_label p)) protocols;
  Printf.printf "\n";
  List.iter
    (fun load ->
      Printf.printf "  %-12d" load;
      List.iter
        (fun protocol ->
          let r =
            run_point
              { pn = n; pprotocol = protocol; pload = load; pduration = duration;
                pwarmup = warmup; pscale = scale }
          in
          Printf.printf "%20.1f kTPS" r.throughput_ktps)
        protocols;
      Printf.printf "\n%!")
    loads

(* ------------------------------------------------------------------ *)
(* Paper-scale sweep: the full n=150 system size of Fig. 5c, all three
   protocols, exercising the batched fan-out fast path at its design
   scale (149 remote copies per broadcast). *)

let paper_scale () =
  section_header "Paper-scale sweep — n=150, clan 80, all three protocols (Fig. 5 shape)";
  if not !paper_scale_enabled then
    Printf.printf
      "  skipped: pass --paper-scale (or set CLANBFT_PAPER_SCALE=1) to run\n"
  else begin
    let n = 150 and nc = 80 in
    let loads = [ 500; 1500 ] in
    let duration = 3.0 and warmup = 0.9 and scale = 50 in
    let protocols = figure_protocols ~nc ~multi:(Some 2) in
    prefetch (figure_points ~n ~protocols ~loads ~duration ~warmup ~scale);
    let result protocol load =
      run_point
        { pn = n; pprotocol = protocol; pload = load; pduration = duration;
          pwarmup = warmup; pscale = scale }
    in
    List.iter
      (fun protocol ->
        print_figure_rows (Runner.protocol_label protocol)
          (List.map (result protocol) loads))
      protocols;
    (* The Fig. 5a-c story, checked mechanically at the saturating load:
       single-clan beats Sailfish on throughput (payload leaves one uplink
       set, not every uplink), and multi-clan recovers proposer parallelism
       on top of that. *)
    let peak protocol =
      List.fold_left
        (fun acc load -> Float.max acc (result protocol load).Runner.throughput_ktps)
        0.0 loads
    in
    let sailfish = peak Runner.Full in
    let single = peak (Runner.Single_clan { nc }) in
    let multi = peak (Runner.Multi_clan { q = 2 }) in
    Printf.printf
      "\n  Peak throughput: sailfish %.1f kTPS, single-clan %.1f kTPS, multi-clan %.1f kTPS\n"
      sailfish single multi;
    Printf.printf "  shape: single-clan > sailfish: %b; multi-clan > single-clan: %b\n"
      (single > sailfish) (multi > single)
  end

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
    Runner.run
      {
        Runner.default_spec with
        n = 10;
        topology = `Uniform delta_ms;
        txns_per_proposal = 1;
        duration = Time.s 8.;
        warmup = Time.s 2.;
      }
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
      let engine = Engine.create () in
      let topology = Topology.gcp_table1 ~n in
      let net =
        Net.create ~engine ~topology ~config:Net.default_config
          ~size:(Rbc.msg_size ~n) ~rng:(Rng.create 13L) ()
      in
      let keychain = Crypto.Keychain.create ~seed:17L ~n in
      let last_delivery = ref 0 in
      let nodes =
        Array.init n (fun me ->
            Rbc.create ~me ~n ~clan ~protocol ~engine ~net ~keychain
              ~on_deliver:(fun ~sender:_ ~round:_ _ ->
                last_delivery := max !last_delivery (Engine.now engine))
              ())
      in
      Rbc.broadcast nodes.(0) ~round:1 (String.make 1_000_000 'x');
      Engine.run engine;
      Printf.printf "  %-16s %14.1f %14.2f %12d\n"
        (Rbc.protocol_name protocol)
        (Time.to_ms !last_delivery)
        (float_of_int (Net.total_bytes net) /. 1e6)
        (Net.total_messages net))
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
    let engine = Engine.create () in
    let topology = Topology.gcp_table1 ~n in
    let rng = Rng.create 911L in
    let net =
      Net.create ~engine ~topology ~config:Net.default_config
        ~size:(Rbc.msg_size ~n) ~rng ()
    in
    let keychain = Crypto.Keychain.create ~seed:17L ~n in
    let plan =
      match Faults.plan_of_specs ~rules:plan_specs () with
      | Ok p -> p
      | Error e -> failwith e
    in
    let injector =
      if Faults.is_empty plan then None
      else
        Some
          (Faults.install ~engine ~net ~rng:(Rng.split rng)
             ~classify:Rbc.msg_tag ~round_of:Rbc.msg_round plan)
    in
    let values = ref 0 and digests = ref 0 and last = ref 0 in
    let _nodes =
      Array.init n (fun me ->
          if me = 0 then begin
            Net.set_handler net me (fun ~src:_ _ -> ());
            None
          end
          else
            Some
              (Rbc.create ~me ~n ~clan ~protocol ~engine ~net ~keychain
                 ~on_deliver:(fun ~sender:_ ~round:_ outcome ->
                   last := Engine.now engine;
                   match outcome with
                   | Rbc.Value _ -> incr values
                   | Rbc.Digest_only _ -> incr digests)
                 ()))
    in
    Adversary.run ~sender:0 ~n ~clan ~protocol ~net ~round:1 behaviour;
    Engine.run ~until:(Time.s 30.) engine;
    Printf.printf "  %-16s %-22s %3d full %3d digest %5.0f ms%s\n"
      (Rbc.protocol_name protocol)
      (Adversary.behaviour_name behaviour)
      !values !digests (Time.to_ms !last)
      (match injector with
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
  let spec =
    {
      Runner.default_spec with
      n = 16;
      protocol = Runner.Single_clan { nc = 11 };
      txns_per_proposal = 100;
      duration = Time.s 10.;
      warmup = Time.s 4.;
      fault_plan = plan;
    }
  in
  let r, secs = wall (fun () -> Runner.run spec) in
  progress "  faults SMR run: %.0fs wall\n" secs;
  Printf.printf "  %-26s -> %8.1f kTPS  %7.1f ms  agree=%b\n" r.label
    r.throughput_ktps r.latency_mean_ms r.agreement;
  if not r.agreement then begin
    Printf.eprintf "  AGREEMENT VIOLATED under faults\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Crash–recovery: WAL replay + state sync (docs/RECOVERY.md) *)

let recovery () =
  section_header
    "Crash-recovery — replica 3 crashes at 4 s, restarts from its WAL at 8 s";
  let obs = Obs.metrics_only () in
  let spec =
    {
      Runner.default_spec with
      n = 16;
      protocol = Runner.Single_clan { nc = 11 };
      txns_per_proposal = 200;
      duration = Time.s 12.;
      warmup = Time.s 2.;
      seed = point_seed "recovery-n16";
      restarts =
        [ { Faults.node = 3; crash_at = Time.s 4.; recover_at = Time.s 8. } ];
      obs = Some obs;
    }
  in
  let r, secs = wall (fun () -> Runner.run spec) in
  progress "  recovery run: %.0fs wall\n" secs;
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
  if not r.agreement then begin
    Printf.eprintf "  AGREEMENT VIOLATED after recovery\n";
    exit 1
  end;
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
  let protocols =
    [| Runner.Full; Runner.Single_clan { nc }; Runner.Multi_clan { q = 2 } |]
  in
  (* Each run owns a private registry, so the three protocols fan out
     across the pool; rows print sequentially afterwards. *)
  let runs =
    Pool.map (Lazy.force pool)
      (fun protocol ->
        let obs = Obs.metrics_only () in
        let spec =
          {
            Runner.default_spec with
            n;
            protocol;
            txns_per_proposal = load;
            duration = Time.s duration;
            warmup = Time.s warmup;
            obs = Some obs;
          }
        in
        let r, secs = wall (fun () -> Runner.run spec) in
        progress "  %-26s done [%3.0fs wall]\n" r.Runner.label secs;
        (protocol, obs, r))
      protocols
  in
  Array.iter
    (fun (protocol, obs, (r : Runner.result)) ->
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
    runs

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel) *)

let micro () =
  section_header
    "Micro-benchmarks (bechamel; measured ns/op and derived throughput on stderr)";
  let open Bechamel in
  let open Toolkit in
  let payload_1k = String.make 1024 'x' in
  let payload_64k = String.make 65536 'x' in
  let kc = Crypto.Keychain.create ~seed:1L ~n:100 in
  let txns =
    Array.init 100 (fun i -> Transaction.make ~id:i ~client:0 ~created_at:0 ())
  in
  let block = Block.make ~proposer:0 ~round:1 ~txns in
  let big_txns =
    Array.init 6000 (fun i -> Transaction.make ~id:i ~client:0 ~created_at:0 ())
  in
  let big_block = Block.make ~proposer:0 ~round:1 ~txns:big_txns in
  let vertex =
    Vertex.make ~round:1 ~source:0 ~block_digest:(Block.digest big_block)
      ~strong_edges:
        (Array.init 11 (fun i ->
             { Vertex.round = 0; source = i; digest = Block.digest block }))
      ~weak_edges:[||] ()
  in
  let val_msg =
    Msg.Val
      {
        vertex;
        block = Some big_block;
        signature = Crypto.Keychain.sign kc ~signer:0 "v";
      }
  in
  let echo =
    Msg.Echo
      {
        round = 1;
        source = 0;
        vertex_digest = Block.digest block;
        signer = 3;
        signature = Crypto.Keychain.sign kc ~signer:3 "x";
      }
  in
  let encoded_echo = Codec.encode ~n:100 echo in
  let rng = Rng.create 99L in
  let tests =
    Test.make_grouped ~name:"clanbft"
      [
        Test.make ~name:"sha256-1KiB" (Staged.stage (fun () ->
            ignore (Crypto.Sha256.digest_string payload_1k)));
        Test.make ~name:"sha256-64KiB" (Staged.stage (fun () ->
            ignore (Crypto.Sha256.digest_string payload_64k)));
        Test.make ~name:"block-digest-100txn" (Staged.stage (fun () ->
            ignore (Block.make ~proposer:0 ~round:1 ~txns)));
        Test.make ~name:"binomial-C(500,166)-cached" (Staged.stage (fun () ->
            ignore (Committee.binomial 500 166)));
        Test.make ~name:"codec-encode-echo" (Staged.stage (fun () ->
            ignore (Codec.encode ~n:100 echo)));
        Test.make ~name:"codec-decode-echo" (Staged.stage (fun () ->
            ignore (Codec.decode ~n:100 encoded_echo)));
        Test.make ~name:"wire-size-val-6000txn" (Staged.stage (fun () ->
            ignore (Msg.wire_size ~n:100 val_msg)));
        Test.make ~name:"rng-int" (Staged.stage (fun () -> ignore (Rng.int rng 1000)));
        Test.make ~name:"sign" (Staged.stage (fun () ->
            ignore (Crypto.Keychain.sign kc ~signer:1 payload_1k)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Bechamel.Time.second 0.3) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let estimates =
    List.filter_map
      (fun (name, v) ->
        match Analyze.OLS.estimates v with
        | Some [ est ] -> Some (name, est)
        | _ -> None)
      rows
    |> List.sort compare
  in
  (* Measured numbers vary run to run: stderr, like every other timing. *)
  List.iter
    (fun (name, est) -> progress "  %-34s %12.1f ns/run\n" name est)
    estimates;
  let find name = List.assoc_opt ("clanbft/" ^ name) estimates in
  Option.iter
    (fun ns -> progress "  %-34s %12.1f MB/s\n" "sha256 throughput" (65536.0 /. ns *. 1e3))
    (find "sha256-64KiB");
  Option.iter
    (fun ns -> progress "  %-34s %12.2f Mops/s\n" "codec encode" (1e3 /. ns))
    (find "codec-encode-echo");
  Option.iter
    (fun ns -> progress "  %-34s %12.2f Mops/s\n" "codec decode" (1e3 /. ns))
    (find "codec-decode-echo");
  (* Deterministic part for stdout: the suite composition. *)
  List.iter (fun (name, _) -> Printf.printf "  measured %s\n" name) estimates

(* ------------------------------------------------------------------ *)
(* Perf section: the regression baseline (BENCH_sim.json).

   Pinned scenarios — identical across profiles — run sequentially (never
   through the pool: wall-clock and allocation numbers must not be
   polluted by concurrent domains), plus single-thread micro throughput
   measurements of the hot paths. Deterministic facts (events, commits,
   fingerprints) go to stdout; timings go to stderr and into the JSON. *)

let bench_sim_json = "BENCH_sim.json"

type perf_scenario = { ps_name : string; ps_spec : Runner.spec }

let mk_perf_scenario ?(n = 16) ?(duration = 4.) ?(warmup = 1.) name protocol load =
  {
    ps_name = name;
    ps_spec =
      {
        Runner.default_spec with
        n;
        protocol;
        txns_per_proposal = load;
        duration = Time.s duration;
        warmup = Time.s warmup;
        seed = point_seed name;
      };
  }

(* The four pinned n=16 scenarios: the fingerprinted determinism anchors,
   and the only ones traced for the analysis section (tracing an n=150 run
   would dominate the whole bench). *)
let pinned_perf_scenarios () =
  [
    mk_perf_scenario "sailfish-n16-load200" Runner.Full 200;
    mk_perf_scenario "single-clan-n16-load400" (Runner.Single_clan { nc = 11 }) 400;
    mk_perf_scenario "multi-clan-n16q2-load200" (Runner.Multi_clan { q = 2 }) 200;
    mk_perf_scenario "sparse-n16-load200" (Runner.Sparse { k = 3 }) 200;
  ]

(* Scale scenarios ride in BENCH_sim.json behind the pinned quartet: n=50
   always (cheap enough for CI, catches fan-out regressions the n=16 runs
   under-weight), the dense-vs-sparse n=150 head-to-head plus the n=300
   dense and n=500 sparse stretch runs only at --paper-scale. The stretch
   durations shrink with n: event volume grows with n^3 (echo fan-out),
   so the sim horizon is what keeps the wall time in minutes. *)
let perf_scenarios () =
  pinned_perf_scenarios ()
  @ [
      mk_perf_scenario ~n:50 ~duration:2. ~warmup:0.5 "sailfish-n50-load200"
        Runner.Full 200;
      mk_perf_scenario ~n:50 ~duration:2. ~warmup:0.5 "sparse-n50-load200"
        (Runner.Sparse { k = 6 }) 200;
    ]
  @
  if !paper_scale_enabled then
    [
      mk_perf_scenario ~n:150 ~duration:1. ~warmup:0.25 "sailfish-n150-load200"
        Runner.Full 200;
      mk_perf_scenario ~n:150 ~duration:1. ~warmup:0.25 "sparse-n150-load200"
        (Runner.Sparse { k = 8 }) 200;
      mk_perf_scenario ~n:300 ~duration:0.5 ~warmup:0.1 "sailfish-n300-load200"
        Runner.Full 200;
      mk_perf_scenario ~n:500 ~duration:0.4 ~warmup:0.1 "sparse-n500-load200"
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
       (fun sc ->
         let obs = Obs.create () in
         let r, secs =
           wall (fun () -> Runner.run { sc.ps_spec with Runner.obs = Some obs })
         in
         progress "  %-26s %6.2fs wall (traced, %d events)\n" sc.ps_name secs
           (Trace.length obs.Obs.trace);
         assert r.Runner.agreement;
         (sc, Analyze.analyze (Trace.records obs.Obs.trace)))
       (pinned_perf_scenarios ()))

let analysis () =
  section_header
    "Trace analysis — commit critical-path attribution over the perf scenarios";
  Printf.printf "  %-26s %-14s %9s %9s %9s\n" "scenario" "segment" "p50 ms"
    "p99 ms" "max ms";
  List.iter
    (fun (sc, (rep : Analyze.report)) ->
      let row name (d : Analyze.dist) =
        Printf.printf "  %-26s %-14s %9.1f %9.1f %9.1f\n" sc.ps_name name
          (float_of_int d.Analyze.p50_us /. 1000.)
          (float_of_int d.Analyze.p99_us /. 1000.)
          (float_of_int d.Analyze.max_us /. 1000.)
      in
      List.iter
        (fun (seg, d) -> row (Analyze.segment_name seg) d)
        rep.Analyze.segments;
      row "end_to_end" rep.Analyze.e2e;
      Printf.printf "  %-26s %-14s %9d %9d\n" sc.ps_name "paths/stalls"
        rep.Analyze.e2e.Analyze.count
        (List.length rep.Analyze.stalls))
    (Lazy.force analysis_rows)

(* ------------------------------------------------------------------ *)
(* Self-profiler sweep — the pinned perf quartet re-run sequentially with
   the Prof sections enabled (plus the n=150 dense run at --paper-scale).
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

let profile_scenarios () =
  pinned_perf_scenarios ()
  @
  if !paper_scale_enabled then
    [
      mk_perf_scenario ~n:150 ~duration:1. ~warmup:0.25 "sailfish-n150-load200"
        Runner.Full 200;
    ]
  else []

let profile_rows =
  lazy
    (List.map
       (fun sc ->
         Gc.full_major ();
         Prof.reset ();
         Prof.set_enabled true;
         let r, secs = wall (fun () -> Runner.run sc.ps_spec) in
         Prof.set_enabled false;
         let rows = Prof.report () in
         progress "  %-26s %6.2fs wall (profiled, %d sections)\n" sc.ps_name
           secs (List.length rows);
         assert r.Runner.agreement;
         {
           pf_name = sc.ps_name;
           pf_fingerprint = r.Runner.commit_fingerprint;
           pf_wall_s = secs;
           pf_rows = rows;
           pf_census = r.Runner.census;
         })
       (profile_scenarios ()))

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
          Printf.printf "  %-18s %12s %14d   census live\n" name "" words)
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

let attack_spec ~proto_name ~protocol ~restart adversaries =
  let adversaries =
    match Strategy.of_specs adversaries with
    | Ok l -> l
    | Error e -> failwith e
  in
  {
    Runner.default_spec with
    n = 16;
    protocol;
    txns_per_proposal = 200;
    duration = Time.s 4.;
    warmup = Time.s 1.;
    seed = point_seed ("attacks-" ^ proto_name);
    adversaries;
    restarts = (if restart then attack_restart else []);
  }

type attack_cell = {
  ac_attack : string;
  ac_protocol : string;
  ac_result : Runner.result;
  ac_base : Runner.result option;  (** [None] on the baseline rows *)
}

let attack_rows =
  lazy
    (let specs =
       List.concat_map
         (fun (pname, protocol) ->
           let mk = attack_spec ~proto_name:pname ~protocol in
           ("benign", pname, mk ~restart:false [])
           :: ("benign+restart", pname, mk ~restart:true [])
           :: List.map
                (fun (aname, dsl, restart) -> (aname, pname, mk ~restart dsl))
                attack_corpus)
         attack_protocols
     in
     let results, secs =
       wall (fun () ->
           Runner.run_many ~pool:(Lazy.force pool)
             (Array.of_list (List.map (fun (_, _, s) -> s) specs)))
     in
     progress "  attack corpus: %d runs, %.0fs wall\n" (Array.length results)
       secs;
     let tagged = List.mapi (fun i (a, p, _) -> (a, p, results.(i))) specs in
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

let attacks () =
  section_header
    "Attack corpus — strategic adversaries vs benign same-seed baselines (n=16)";
  Printf.printf "  %-8s %-15s %8s %8s %8s %6s %6s %6s %6s\n" "protocol"
    "attack" "kTPS" "p50 ms" "p99 ms" "tput x" "p50 x" "p99 x" "agree";
  let ratio a b = a /. b in
  List.iter
    (fun c ->
      let r = c.ac_result in
      (match c.ac_base with
      | None ->
          Printf.printf "  %-8s %-15s %8.1f %8.1f %8.1f %6s %6s %6s %6b\n"
            c.ac_protocol c.ac_attack r.Runner.throughput_ktps
            r.Runner.latency_p50_ms r.Runner.latency_p99_ms "-" "-" "-"
            r.Runner.agreement
      | Some b ->
          Printf.printf "  %-8s %-15s %8.1f %8.1f %8.1f %6.2f %6.2f %6.2f %6b\n"
            c.ac_protocol c.ac_attack r.Runner.throughput_ktps
            r.Runner.latency_p50_ms r.Runner.latency_p99_ms
            (ratio r.Runner.throughput_ktps b.Runner.throughput_ktps)
            (ratio r.Runner.latency_p50_ms b.Runner.latency_p50_ms)
            (ratio r.Runner.latency_p99_ms b.Runner.latency_p99_ms)
            r.Runner.agreement);
      if not r.Runner.agreement then begin
        Printf.eprintf "  AGREEMENT VIOLATED under %s/%s\n" c.ac_protocol
          c.ac_attack;
        exit 1
      end;
      if r.Runner.committed_txns = 0 then begin
        Printf.eprintf "  LIVENESS LOST under %s/%s\n" c.ac_protocol
          c.ac_attack;
        exit 1
      end)
    (Lazy.force attack_rows)

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

let perf_micro () =
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
  [
    ("sha256_mb_per_s", sha_mb_s);
    ("sign_ops_per_s", sign_ops);
    ("encode_ops_per_s", enc_ops);
    ("decode_ops_per_s", dec_ops);
    ("net_send_ops_per_s", send_ops);
  ]

let perf () =
  section_header
    (Printf.sprintf "Perf baseline — pinned scenarios + hot-path micros -> %s"
       bench_sim_json);
  let scenarios = perf_scenarios () in
  Printf.printf "  %-26s %4s %6s %10s %12s %8s %18s\n" "scenario" "n" "load"
    "committed" "events" "agree" "fingerprint";
  let measured =
    List.map
      (fun sc ->
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let r, secs = wall (fun () -> Runner.run sc.ps_spec) in
        let g1 = Gc.quick_stat () in
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
          sc.ps_name secs events_per_s minor major live top;
        Printf.printf "  %-26s %4d %6d %10d %12d %8b %#18x\n" sc.ps_name
          sc.ps_spec.Runner.n sc.ps_spec.Runner.txns_per_proposal
          r.Runner.committed_txns r.Runner.events r.Runner.agreement
          r.Runner.commit_fingerprint;
        (sc, r, secs, events_per_s, minor, major, promoted, live, top))
      scenarios
  in
  let micros = perf_micro () in
  (* Tracing overhead: traced vs untraced same-seed wall ratio for the
     first pinned scenario, measured back-to-back so GC and code-cache
     state are comparable. The ratio rides in the micro object; being a
     wall-clock fact, the detail line goes to stderr. *)
  let trace_overhead =
    let sc = List.hd scenarios in
    Gc.full_major ();
    let plain, plain_s = wall (fun () -> Runner.run sc.ps_spec) in
    Gc.full_major ();
    let obs = Obs.create () in
    let traced, traced_s =
      wall (fun () -> Runner.run { sc.ps_spec with Runner.obs = Some obs })
    in
    if plain.Runner.commit_fingerprint <> traced.Runner.commit_fingerprint
    then begin
      Printf.eprintf "  TRACING CHANGED THE RUN on %s\n" sc.ps_name;
      exit 1
    end;
    let ratio = traced_s /. plain_s in
    progress "  trace overhead (%s): %.2fs untraced, %.2fs traced, x%.3f\n"
      sc.ps_name plain_s traced_s ratio;
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
      match
        List.find_opt
          (fun (sc, _, _, _, _, _, _, _, _) -> sc.ps_name = pf.pf_name)
          measured
      with
      | Some (_, (r : Runner.result), _, _, _, _, _, _, _) ->
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
  let scenario (sc, (r : Runner.result), secs, eps, minor, major, promoted, live, top) =
    Json.Obj
      [
        ("name", str sc.ps_name);
        ("protocol", str (Runner.protocol_label sc.ps_spec.Runner.protocol));
        ("n", int sc.ps_spec.Runner.n);
        ("load", int sc.ps_spec.Runner.txns_per_proposal);
        ("sim_duration_s", float (Time.to_s sc.ps_spec.Runner.duration));
        ("wall_s", float secs);
        ("events", int r.events);
        ("events_per_s", float eps);
        ("minor_words", words minor);
        ("major_words", words major);
        ("promoted_words", words promoted);
        ("live_words", int live);
        ("top_heap_words", int top);
        ("committed_txns", int r.committed_txns);
        ("throughput_ktps", float r.throughput_ktps);
        ("latency_mean_ms", float r.latency_mean_ms);
        ("agreement", Json.Bool r.agreement);
        ("commit_fingerprint", fingerprint r.commit_fingerprint);
      ]
  in
  let analysis (sc, (rep : Analyze.report)) =
    ( sc.ps_name,
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
      match c.ac_base with
      | None -> []
      | Some base ->
          [
            ("tput_ratio", float (r.Runner.throughput_ktps /. base.Runner.throughput_ktps));
            ("p50_ratio", float (r.Runner.latency_p50_ms /. base.Runner.latency_p50_ms));
            ("p99_ratio", float (r.Runner.latency_p99_ms /. base.Runner.latency_p99_ms));
          ]
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
    ("fig5a", fig5 `A);
    ("fig5b", fig5 `B);
    ("fig5c", fig5 `C);
    ("fig6", fig6);
    ("paper-scale", paper_scale);
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
    | "--paper-scale" :: rest ->
        paper_scale_enabled := true;
        parse_args jobs names rest
    | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" -> (
        let v = String.sub arg 7 (String.length arg - 7) in
        match int_of_string_opt v with
        | Some j when j >= 1 -> parse_args (Some j) names rest
        | _ ->
            Printf.eprintf "--jobs: expected a positive integer, got %S\n" v;
            exit 2)
    | name :: rest -> parse_args jobs (name :: names) rest
  in
  let jobs, requested =
    parse_args None [] (List.tl (Array.to_list Sys.argv))
  in
  (* Resolve the width now: a malformed CLANBFT_JOBS should fail before
     any simulation runs, not when the lazy pool is first forced. *)
  let jobs =
    match jobs with
    | Some j -> Some j
    | None -> (
        match Pool.default_jobs () with
        | j -> Some j
        | exception Invalid_argument msg ->
            Printf.eprintf "%s\n" msg;
            exit 2)
  in
  requested_jobs := jobs;
  let requested =
    match requested with [] -> List.map fst sections | names -> names
  in
  Printf.printf "clanbft benchmark harness — profile: %s\n" profile_name;
  Printf.printf "(set CLANBFT_BENCH=quick|paper|full to change scope)\n";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections)))
    requested;
  progress "\nTotal wall time: %.1f s\n" (Unix.gettimeofday () -. t0);
  if Lazy.is_val pool then Pool.shutdown (Lazy.force pool)
