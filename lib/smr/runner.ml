open Clanbft_types
open Clanbft_sim
module Analysis = Clanbft_committee.Analysis
module Sailfish = Clanbft_consensus.Sailfish
module Stats = Clanbft_util.Stats
module Faults = Clanbft_faults.Faults
module Strategy = Clanbft_faults.Strategy
module Obs = Clanbft_obs.Obs
module Prof = Clanbft_obs.Prof
module Metrics = Clanbft_obs.Metrics
module Bitset = Clanbft_util.Bitset

type protocol =
  | Full
  | Single_clan of { nc : int }
  | Multi_clan of { q : int }
  | Sparse of { k : int }

let protocol_label = function
  | Full -> "sailfish"
  | Single_clan { nc } -> Printf.sprintf "single-clan(nc=%d)" nc
  | Multi_clan { q } -> Printf.sprintf "multi-clan(q=%d)" q
  | Sparse { k } -> Printf.sprintf "sparse(k=%d)" k

type spec = {
  n : int;
  protocol : protocol;
  txns_per_proposal : int;
  txn_size : int;
  txn_scale : int;
  topology : [ `Gcp | `Uniform of float ];
  duration : Time.span;
  warmup : Time.span;
  seed : int64;
  net : Net.config;
  params : Sailfish.params;
  crashed : int list;
  fault_plan : Faults.plan;
  restarts : Faults.restart list;
  adversaries : Strategy.spec list;
  persist : bool;
  obs : Obs.t option;
}

let default_spec =
  {
    n = 16;
    protocol = Full;
    txns_per_proposal = 500;
    txn_size = Transaction.default_size;
    txn_scale = 1;
    topology = `Gcp;
    duration = Time.s 12.;
    warmup = Time.s 3.;
    seed = 0xC1A9L;
    net = Net.default_config;
    params = Sailfish.default_params;
    crashed = [];
    fault_plan = Faults.empty;
    restarts = [];
    adversaries = [];
    persist = false;
    obs = None;
  }

type result = {
  label : string;
  committed_txns : int;
  throughput_ktps : float;
  latency_mean_ms : float;
  latency_p50_ms : float;
  latency_p99_ms : float;
  rounds : int;
  leaders_committed : int;
  bytes_total : int;
  mb_per_node_per_s : float;
  events : int;
  dispatched : int;
  agreement : bool;
  commit_fingerprint : int;
  commit_chain : int array;
  post_recovery_commits : (int * int) list;
  census : (string * int) list;
}

let dissemination_of spec =
  match spec.protocol with
  | Full | Sparse _ -> Config.Full
  | Single_clan { nc } -> Config.Single_clan (Analysis.elect_balanced ~n:spec.n ~nc)
  | Multi_clan { q } -> Config.Multi_clan (Analysis.partition_balanced ~n:spec.n ~q)

(* Per proposed block: what the workload generator produced for it. A block
   is "committed by all" once every replica required to commit it has —
   crashed and muted replicas are never required (they are the modelled
   faults), a restarting replica is excused only while it is down. *)
type block_meta = {
  created_at : Time.t;
  effective_txns : int;
  committers : Bitset.t; (* replicas that committed it (dedup) *)
  mutable req_commits : int; (* committers that are always required *)
  mutable done_ : bool;
}

let validate spec =
  let n = spec.n in
  let out_of_range id = id < 0 || id >= n in
  let restarted = Hashtbl.create 8 in
  let restart_problem (r : Faults.restart) =
    if out_of_range r.node then
      Some (Printf.sprintf "Runner: bad restart id %d for n=%d" r.node n)
    else if List.mem r.node spec.crashed then
      Some (Printf.sprintf "Runner: restart of crashed replica %d" r.node)
    else if Hashtbl.mem restarted r.node then
      Some (Printf.sprintf "Runner: duplicate restart for replica %d" r.node)
    else if r.crash_at >= r.recover_at then Some "Runner: restart window"
    else (
      Hashtbl.replace restarted r.node ();
      None)
  in
  if spec.txn_scale < 1 then Error "Runner: txn_scale must be >= 1"
  else if spec.txns_per_proposal < 0 then Error "Runner: negative load"
  else
    match List.find_opt out_of_range spec.crashed with
    | Some id -> Error (Printf.sprintf "Runner: bad crashed id %d for n=%d" id n)
    | None -> (
        match List.find_map restart_problem spec.restarts with
        | Some e -> Error e
        | None -> Strategy.validate ~n spec.adversaries)

let run ?on_wal spec =
  Result.iter_error invalid_arg (validate spec);
  let engine = Engine.create () in
  let topology =
    match spec.topology with
    | `Gcp -> Topology.gcp_table1 ~n:spec.n
    | `Uniform one_way_ms -> Topology.uniform ~n:spec.n ~one_way_ms
  in
  (* One obs per run unless the caller shares its own: the registry must
     not accumulate across runs, and the default spec is reused freely. *)
  let obs = match spec.obs with Some o -> o | None -> Obs.metrics_only () in
  (* The sparse edge-selection seed derives from the run seed, so two runs
     of one spec sample identical parent sets and stay bit-reproducible. *)
  let edge_policy =
    match spec.protocol with
    | Sparse { k } -> Config.Sparse { k; seed = spec.seed }
    | Full | Single_clan _ | Multi_clan _ -> Config.Dense
  in
  let config = Config.make ~n:spec.n ~edge_policy (dissemination_of spec) in
  let restart_of = Array.make spec.n None in
  List.iter (fun (r : Faults.restart) -> restart_of.(r.node) <- Some r) spec.restarts;
  (* Replicas that must commit a block before it counts as committed-by-all:
     crashed and muted replicas never do, restarting ones are handled by a
     per-block excuse window below. *)
  let muted_nodes =
    List.map (fun (m : Faults.mute) -> m.node) spec.fault_plan.Faults.mutes
  in
  (* Strategy-occupied nodes are the modelled Byzantine parties: like muted
     replicas they are never required to commit a block, and their ledgers
     make no honest claims (left out of the commit-prefix check). *)
  let adversary_nodes =
    List.map (fun (s : Strategy.spec) -> s.Strategy.node) spec.adversaries
  in
  let always_required =
    Array.init spec.n (fun i ->
        (not (List.mem i spec.crashed))
        && (not (List.mem i muted_nodes))
        && (not (List.mem i adversary_nodes))
        && restart_of.(i) = None)
  in
  let required_total =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 always_required
  in
  (* ---- workload + measurement state ---- *)
  let metas : (int * int, block_meta) Hashtbl.t = Hashtbl.create 4096 in
  let next_txn = ref 0 in
  let samples = Stats.create () in
  let committed_txns = ref 0 in
  let warmup_end = spec.warmup in
  let sim_count = max 1 (spec.txns_per_proposal / spec.txn_scale) in
  let effective = if spec.txns_per_proposal = 0 then 0 else sim_count * spec.txn_scale in
  let generate proposer ~round =
    if spec.txns_per_proposal = 0 then [||]
    else begin
      let now = Engine.now engine in
      Hashtbl.replace metas (proposer, round)
        {
          created_at = now;
          effective_txns = effective;
          committers = Bitset.create spec.n;
          req_commits = 0;
          done_ = false;
        };
      Array.init sim_count (fun _ ->
          incr next_txn;
          Transaction.make ~id:!next_txn ~client:proposer ~created_at:now
            ~size:(spec.txn_size * spec.txn_scale) ())
    end
  in
  (* Per-replica commit latency (creation → committed by THIS replica),
     complementing the committed-by-all reservoir below. *)
  let commit_hist =
    Array.init spec.n (fun i ->
        Metrics.histogram obs.Obs.metrics
          ~labels:[ ("node", string_of_int i) ]
          ~buckets:Stats.Histogram.latency_ms_buckets "commit_latency_ms")
  in
  let leaders_committed = ref 0 in
  let post_recovery = Array.make spec.n 0 in
  let on_commit me ~leader:(l : Vertex.t) vertices =
    if l.round >= 0 && me = 0 then incr leaders_committed;
    let now = Engine.now engine in
    (* Commits strictly after the replica's recovery instant: WAL replay
       fires exactly at [recover_at], so anything later is new progress. *)
    (match restart_of.(me) with
    | Some (r : Faults.restart) when now > r.recover_at ->
        post_recovery.(me) <- post_recovery.(me) + List.length vertices
    | _ -> ());
    List.iter
      (fun (v : Vertex.t) ->
        match Hashtbl.find_opt metas (v.source, v.round) with
        | None -> ()
        | Some meta when meta.done_ -> ()
        | Some meta ->
            if Bitset.add meta.committers me then begin
              Metrics.observe commit_hist.(me)
                (Time.to_ms (now - meta.created_at));
              if always_required.(me) then
                meta.req_commits <- meta.req_commits + 1
            end;
            let restarters_ok =
              List.for_all
                (fun (r : Faults.restart) ->
                  (now >= r.crash_at && now < r.recover_at)
                  || Bitset.mem meta.committers r.node)
                spec.restarts
            in
            if meta.req_commits >= required_total && restarters_ok then begin
              meta.done_ <- true;
              if meta.created_at >= warmup_end then begin
                Stats.add samples (Time.to_ms (now - meta.created_at));
                committed_txns := !committed_txns + meta.effective_txns
              end;
              Hashtbl.remove metas (v.source, v.round)
            end)
      vertices
  in
  let world =
    Smr_world.create ~engine ~obs ~topology ~net:spec.net ~seed:spec.seed
      ~params:spec.params ~absent:spec.crashed ~unchecked:adversary_nodes
      ~plan:spec.fault_plan ~adversaries:spec.adversaries ~persist:spec.persist
      ~restarts:spec.restarts ~generate ~on_commit config
  in
  Smr_world.start world;
  Engine.run ~until:spec.duration engine;
  Option.iter (fun f -> Array.iteri f world.persist) on_wal;
  (* A replica that snapshot-joined past a GC'd gap rebuilt its ledger from
     a peer's floor, not from genesis: its ledger is left out (its
     continued liveness is still visible in [post_recovery_commits]).
     Fully replayed replicas stay in — their ledgers rebuild from genesis
     and must match. One integer then summarizes every compared replica's
     full commit sequence: two runs commit bit-identical sequences iff
     fingerprints match (up to hash collision). The determinism tests
     compare this across tracing-on/off runs. *)
  let compared = List.filter (Smr_world.compared world) (List.init spec.n Fun.id) in
  let replicas = Smr_world.replicas world in
  (* End-of-run heap census, measured only under the profiler (k+1 heap
     passes): the replicas' data roots row by row, the engine's calendar,
     then whatever else the simulation reaches (callbacks, messages in
     flight, the net). *)
  let census =
    if not (Prof.enabled ()) then []
    else
      Prof.census
        (Node.heap_roots replicas
        @ [
            ("keychain", [ Obj.repr world.keychain ]);
            ("obs.trace", [ Obj.repr obs.Obs.trace ]);
            ("sim.engine", Engine.heap_roots engine);
            ( "other",
              [ Obj.repr world.nodes; Obj.repr engine; Obj.repr world.net; Obj.repr obs ] );
          ])
  in
  let window_s = Time.to_s (spec.duration - spec.warmup) in
  let max_round =
    List.fold_left
      (fun acc node -> max acc (Sailfish.current_round (Node.consensus node)))
      0 replicas
  in
  let net = world.net in
  {
    label =
      Printf.sprintf "%s n=%d load=%d" (protocol_label spec.protocol) spec.n
        spec.txns_per_proposal;
    committed_txns = !committed_txns;
    throughput_ktps = float_of_int !committed_txns /. window_s /. 1_000.;
    (* percentile is total (nan when no block completed in-window). *)
    latency_mean_ms = Stats.mean samples;
    latency_p50_ms = Stats.percentile samples 50.;
    latency_p99_ms = Stats.percentile samples 99.;
    rounds = max_round;
    leaders_committed = !leaders_committed;
    bytes_total = Net.total_bytes net;
    mb_per_node_per_s =
      float_of_int (Net.total_bytes net)
      /. float_of_int spec.n /. Time.to_s spec.duration /. 1e6;
    events = Engine.events_processed engine;
    dispatched = Engine.events_dispatched engine;
    agreement = Smr_world.divergence world = None;
    commit_fingerprint = Smr_world.Ledger.fingerprint world.ledger compared;
    commit_chain =
      (let rec owner i =
         if i >= spec.n then 0 else if always_required.(i) then i else owner (i + 1)
       in
       Smr_world.Ledger.chain world.ledger (owner 0));
    post_recovery_commits =
      List.map
        (fun (r : Faults.restart) -> (r.node, post_recovery.(r.node)))
        spec.restarts;
    census;
  }

(* Streamed tracing: every event goes straight to the JSONL file as it is
   emitted, so a long traced run (n=150, tens of millions of events) never
   holds the trace in memory at all — let alone twice (buffer + export
   serialization). The channel is closed (flushing the tail) even when the
   run raises. *)
let with_streamed_trace ~path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> f (Obs.of_trace (Clanbft_obs.Trace.stream oc)))

(* Each run owns every piece of mutable state it touches (engine, RNG,
   keychain, net, metric registry), so independent specs are safe to fan
   out across domains; results come back in spec order. *)
let run_many ?pool specs =
  match pool with
  | Some pool -> Clanbft_util.Pool.map pool run specs
  | None -> Clanbft_util.Pool.with_pool (fun pool -> Clanbft_util.Pool.map pool run specs)

let pp_result ppf r =
  Format.fprintf ppf
    "%-28s tput=%8.1f kTPS  lat(mean/p50/p99)=%7.1f/%7.1f/%7.1f ms  rounds=%-4d egress=%6.1f MB/s/node  agree=%b"
    r.label r.throughput_ktps r.latency_mean_ms r.latency_p50_ms r.latency_p99_ms
    r.rounds r.mb_per_node_per_s r.agreement
