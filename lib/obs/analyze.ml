(* Pure, deterministic trace analysis: commit critical-path attribution,
   per-round timelines, queueing stats and a liveness stall detector.

   Input is a list of Trace.records (in emission = timestamp order, as the
   sinks produce them); nothing here reads clocks, randomness or global
   state, so analyzing the same trace twice yields byte-identical reports. *)

module Json = Clanbft_util.Json

(* ------------------------------------------------------------------ *)
(* Report types *)

type segment = Dissemination | Echo_wait | Quorum_wait | Dag_wait | Order_wait

let segment_count = 5
let all_segments = [| Dissemination; Echo_wait; Quorum_wait; Dag_wait; Order_wait |]

let segment_name = function
  | Dissemination -> "dissemination"
  | Echo_wait -> "echo_wait"
  | Quorum_wait -> "quorum_wait"
  | Dag_wait -> "dag_wait"
  | Order_wait -> "order_wait"

type dist = {
  count : int;
  p50_us : int;
  p99_us : int;
  mean_us : float;
  max_us : int;
}

let empty_dist = { count = 0; p50_us = 0; p99_us = 0; mean_us = 0.0; max_us = 0 }

(* Nearest-rank percentile over unsorted integer samples. *)
let dist_of samples =
  match samples with
  | [] -> empty_dist
  | _ ->
      let a = Array.of_list samples in
      Array.sort compare a;
      let n = Array.length a in
      let rank p =
        let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
        a.(max 0 (min (n - 1) i))
      in
      let sum = Array.fold_left ( + ) 0 a in
      {
        count = n;
        p50_us = rank 50.0;
        p99_us = rank 99.0;
        mean_us = float_of_int sum /. float_of_int n;
        max_us = a.(n - 1);
      }

type path = {
  p_node : int;  (** the committing replica *)
  p_round : int;
  p_source : int;
  p_origin : int;  (** µs: the sender's PROPOSE (fallback: first sighting) *)
  p_commit : int;  (** µs *)
  p_segments : int array;  (** [segment_count] entries, summing exactly to
                               [p_commit - p_origin] *)
}

type round_info = {
  r_round : int;
  r_start : int;  (** µs: first PROPOSE (fallback: first VAL) for the round *)
  r_first_commit : int option;
  r_pull_retries : int;
}

type uplink_info = {
  u_node : int;
  u_busy_us : int;
  u_queue_us : int;
  u_bursts : int;
  u_bytes : int;
}

type stall = {
  st_kind : [ `Commit | `Round ];
  st_from : int;
  st_until : int;
  st_gap_us : int;
  st_cause : string;
}

type report = {
  n : int;
  events : int;
  first_ts : int;
  last_ts : int;
  paths : path list;
  distinct_vertices : int;
  segments : (segment * dist) list;
  e2e : dist;
  rounds : round_info list;
  round_advance : dist;
  pull_retries : int;
  uplinks : uplink_info list;
  median_commit_gap_us : int;
  median_round_gap_us : int;
  stalls : stall list;
}

(* ------------------------------------------------------------------ *)
(* JSONL loading *)

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let acc = ref [] in
      (try
         while true do
           match Trace.of_jsonl_line (input_line ic) with
           | Some r -> acc := r :: !acc
           | None -> ()
         done
       with End_of_file -> ());
      List.rev !acc)

(* ------------------------------------------------------------------ *)
(* Analysis *)

let first_to tbl key ts =
  if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key ts

(* Stall windows over a sorted timeline of progress timestamps: flag every
   inter-event gap exceeding [factor] times the median gap, plus the
   trailing silence up to the end of the trace. Below [min_gaps] samples
   the median is meaningless and gap-based detection is skipped (the
   no-progress-at-all case is handled by the caller). *)
let stall_windows ~kind ~timeline ~trace_end ~factor ~min_gaps =
  let rec gaps acc = function
    | a :: (b :: _ as rest) -> gaps ((a, b, b - a) :: acc) rest
    | _ -> List.rev acc
  in
  let gs = gaps [] timeline in
  let median = (dist_of (List.map (fun (_, _, g) -> g) gs)).p50_us in
  let windows =
    if List.length gs < min_gaps || median <= 0 then []
    else begin
      let threshold = int_of_float (factor *. float_of_int median) in
      let tail =
        match List.rev timeline with
        | last :: _ when trace_end - last > threshold ->
            [ (last, trace_end, trace_end - last) ]
        | _ -> []
      in
      List.filter (fun (_, _, g) -> g > threshold) gs @ tail
    end
  in
  (median, List.map (fun (a, b, g) -> (kind, a, b, g)) windows)

let analyze ?(stall_factor = 5.0) records =
  let n = ref 0 in
  let events = ref 0 in
  let first_ts = ref max_int and last_ts = ref min_int in
  let see_node i = if i + 1 > !n then n := i + 1 in
  let see_ts ts =
    if ts < !first_ts then first_ts := ts;
    if ts > !last_ts then last_ts := ts
  in
  (* Milestone tables (all keyed first-wins; records arrive in ts order). *)
  let propose_ts = Hashtbl.create 1024 in (* (sender, round) -> ts *)
  let first_seen = Hashtbl.create 1024 in (* (sender, round) -> ts *)
  let val_ts = Hashtbl.create 4096 in (* (node, sender, round) -> ts *)
  let echo_ts = Hashtbl.create 4096 in
  let cert_ts = Hashtbl.create 4096 in
  let deliver_ts = Hashtbl.create 4096 in
  let commits_rev = ref [] in (* (ts, node, round, source), emission order *)
  let vertex_commit_ts = Hashtbl.create 1024 in (* (round, source) -> ts *)
  let commit_timeline_rev = ref [] in
  let round_start = Hashtbl.create 256 in (* round -> ts *)
  let round_fallback = Hashtbl.create 256 in (* round -> first VAL ts *)
  let round_first_commit = Hashtbl.create 256 in
  let round_pulls = Hashtbl.create 256 in
  let pull_ts_rev = ref [] in
  let pulls = ref 0 in
  let leader_obs = Hashtbl.create 256 in (* leader_round -> source *)
  let uplinks = Hashtbl.create 64 in (* node -> info *)
  let mutes_rev = ref [] in (* (ts, src) *)
  let partitions_rev = ref [] in (* ts *)
  (* Strategic-adversary fires (rule = -2), keyed by the strategy's action
     string; src is the occupied (attacking) node. *)
  let griefs_rev = ref [] in (* (ts, src) *)
  let storms_rev = ref [] in
  let censors_rev = ref [] in
  let equivs_rev = ref [] in
  let reorders_rev = ref [] in
  let sync_start = Hashtbl.create 16 in (* node -> ts list, rev *)
  let caught_up = Hashtbl.create 16 in
  List.iter
    (fun { Trace.ts; ev } ->
      incr events;
      see_ts ts;
      match ev with
      | Trace.Msg_recv { src; dst; _ } ->
          see_node src;
          see_node dst
      | Trace.Msg_bcast { src; _ } ->
          (* A send burst: recipients are discovered via their Msg_recv
             records; wire accounting comes from the burst's Uplink span. *)
          see_node src
      | Trace.Uplink { node; bytes; enqueued; start; depart; _ } ->
          see_node node;
          let u =
            match Hashtbl.find_opt uplinks node with
            | Some u -> u
            | None ->
                { u_node = node; u_busy_us = 0; u_queue_us = 0; u_bursts = 0;
                  u_bytes = 0 }
          in
          Hashtbl.replace uplinks node
            {
              u with
              u_busy_us = u.u_busy_us + max 0 (depart - start);
              u_queue_us = u.u_queue_us + max 0 (start - enqueued);
              u_bursts = u.u_bursts + 1;
              u_bytes = u.u_bytes + bytes;
            }
      | Trace.Rbc_phase { node; sender; round; phase } -> (
          see_node node;
          see_node sender;
          first_to first_seen (sender, round) ts;
          match phase with
          | Trace.Propose -> first_to propose_ts (sender, round) ts;
              first_to round_start round ts
          | Trace.Val ->
              first_to val_ts (node, sender, round) ts;
              first_to round_fallback round ts
          | Trace.Echo -> first_to echo_ts (node, sender, round) ts
          | Trace.Cert -> first_to cert_ts (node, sender, round) ts
          | Trace.Ready | Trace.Deliver -> ()
          | Trace.Pull_retry ->
              incr pulls;
              pull_ts_rev := ts :: !pull_ts_rev;
              Hashtbl.replace round_pulls round
                (1 + Option.value ~default:0 (Hashtbl.find_opt round_pulls round)))
      | Trace.Vertex_deliver { node; round; source } ->
          see_node node;
          see_node source;
          first_to first_seen (source, round) ts;
          first_to deliver_ts (node, round, source) ts
      | Trace.Vertex_commit { node; round; source; leader_round } ->
          see_node node;
          see_node source;
          commits_rev := (ts, node, round, source) :: !commits_rev;
          if round = leader_round then
            first_to leader_obs leader_round source;
          if not (Hashtbl.mem vertex_commit_ts (round, source)) then begin
            Hashtbl.replace vertex_commit_ts (round, source) ts;
            commit_timeline_rev := ts :: !commit_timeline_rev;
            first_to round_first_commit round ts
          end
      | Trace.Fault_fire { action; src; _ } -> (
          see_node src;
          match action with
          | "mute" -> mutes_rev := (ts, src) :: !mutes_rev
          | "partition_delay" | "partition_drop" ->
              partitions_rev := ts :: !partitions_rev
          | "grief" -> griefs_rev := (ts, src) :: !griefs_rev
          | "sync_storm" -> storms_rev := (ts, src) :: !storms_rev
          | "censor" -> censors_rev := (ts, src) :: !censors_rev
          | "equivocate" -> equivs_rev := (ts, src) :: !equivs_rev
          | "reorder" -> reorders_rev := (ts, src) :: !reorders_rev
          | _ -> ())
      | Trace.Recovery { node; stage; _ } -> (
          see_node node;
          let push tbl =
            Hashtbl.replace tbl node
              (ts :: Option.value ~default:[] (Hashtbl.find_opt tbl node))
          in
          match stage with
          | "sync_start" -> push sync_start
          | "caught_up" -> push caught_up
          | _ -> ()))
    records;
  let n = !n in
  let first_ts = if !events = 0 then 0 else !first_ts in
  let last_ts = if !events = 0 then 0 else !last_ts in
  (* --- per-commit critical paths ---------------------------------- *)
  (* Milestones are clamped monotonically (a later milestone can be missing
     — e.g. a fetched vertex has no VAL on this node — or recorded out of
     order when a certificate outruns the value), so the five segments
     always telescope exactly to [commit - origin]. *)
  let paths =
    List.rev_map
      (fun (commit, node, round, source) ->
        let origin =
          match Hashtbl.find_opt propose_ts (source, round) with
          | Some ts -> min ts commit
          | None -> (
              match Hashtbl.find_opt first_seen (source, round) with
              | Some ts -> min ts commit
              | None -> commit)
        in
        let segments = Array.make segment_count 0 in
        let cur = ref origin in
        let milestone i m =
          let target =
            match m with
            | Some ts -> min commit (max !cur ts)
            | None -> !cur
          in
          segments.(i) <- target - !cur;
          cur := target
        in
        milestone 0 (Hashtbl.find_opt val_ts (node, source, round));
        milestone 1 (Hashtbl.find_opt echo_ts (node, source, round));
        milestone 2 (Hashtbl.find_opt cert_ts (node, source, round));
        milestone 3 (Hashtbl.find_opt deliver_ts (node, round, source));
        segments.(4) <- commit - !cur;
        {
          p_node = node;
          p_round = round;
          p_source = source;
          p_origin = origin;
          p_commit = commit;
          p_segments = segments;
        })
      !commits_rev
  in
  let segments =
    Array.to_list
      (Array.mapi
         (fun i seg ->
           (seg, dist_of (List.map (fun p -> p.p_segments.(i)) paths)))
         all_segments)
  in
  let e2e = dist_of (List.map (fun p -> p.p_commit - p.p_origin) paths) in
  (* --- per-round timeline ------------------------------------------ *)
  let rounds =
    Hashtbl.fold
      (fun r ts acc ->
        if Hashtbl.mem round_start r then acc else (r, ts) :: acc)
      round_fallback []
    |> List.rev_append (Hashtbl.fold (fun r ts acc -> (r, ts) :: acc) round_start [])
    |> List.sort compare
    |> List.map (fun (r, start) ->
           {
             r_round = r;
             r_start = start;
             r_first_commit = Hashtbl.find_opt round_first_commit r;
             r_pull_retries =
               Option.value ~default:0 (Hashtbl.find_opt round_pulls r);
           })
  in
  let round_advance =
    let rec deltas acc = function
      | a :: (b :: _ as rest) -> deltas ((b.r_start - a.r_start) :: acc) rest
      | _ -> List.rev acc
    in
    dist_of (deltas [] rounds)
  in
  let uplinks =
    Hashtbl.fold (fun _ u acc -> u :: acc) uplinks []
    |> List.sort (fun a b -> compare a.u_node b.u_node)
  in
  (* --- stall detection --------------------------------------------- *)
  let commit_timeline = List.rev !commit_timeline_rev in
  let round_timeline = List.map (fun r -> r.r_start) rounds in
  let median_commit_gap, commit_stalls =
    stall_windows ~kind:`Commit ~timeline:commit_timeline ~trace_end:last_ts
      ~factor:stall_factor ~min_gaps:4
  in
  let median_round_gap, round_stalls =
    stall_windows ~kind:`Round ~timeline:round_timeline ~trace_end:last_ts
      ~factor:stall_factor ~min_gaps:4
  in
  let no_commit_stall =
    (* Liveness failure outright: proposals happened, nothing ever
       committed. *)
    if commit_timeline = [] && rounds <> [] && last_ts > first_ts then
      [ (`Commit, first_ts, last_ts, last_ts - first_ts) ]
    else []
  in
  let mutes = List.rev !mutes_rev in
  let partitions = List.rev !partitions_rev in
  let griefs = List.rev !griefs_rev in
  let storms = List.rev !storms_rev in
  let censors = List.rev !censors_rev in
  let equivs = List.rev !equivs_rev in
  let reorders = List.rev !reorders_rev in
  let pull_times = List.rev !pull_ts_rev in
  (* Observed (leader_round, source) pairs are ground truth; for an
     unobserved round, extrapolate from the nearest observed pair rather
     than guessing [r mod n] directly. The raw modular fallback silently
     assumes the trace exposed every node id (n is inferred), which
     restart/recovery-heavy traces with muted or occupied replicas can
     violate — and then the fallback blames the wrong replica for a stall.
     Anchoring at a real pair keeps the rotation aligned with what the run
     actually committed. *)
  let leader_pairs =
    Hashtbl.fold (fun r l acc -> (r, l) :: acc) leader_obs []
  in
  let leader_of r =
    match Hashtbl.find_opt leader_obs r with
    | Some l -> l
    | None -> (
        let nearest =
          List.fold_left
            (fun acc (r0, l0) ->
              match acc with
              | Some (rb, _) when abs (r - rb) <= abs (r - r0) -> acc
              | _ -> Some (r0, l0))
            None leader_pairs
        in
        match nearest with
        | Some (r0, l0) when n > 0 -> (((l0 + (r - r0)) mod n) + n) mod n
        | Some (_, l0) -> l0
        | None -> if n > 0 then r mod n else 0)
  in
  let sync_in_flight a b =
    (* Does any replica's [sync_start .. caught_up] window overlap [a,b]? *)
    Hashtbl.fold
      (fun node starts acc ->
        acc
        || List.exists
             (fun s ->
               let finish =
                 Option.value ~default:[] (Hashtbl.find_opt caught_up node)
                 |> List.filter (fun e -> e >= s)
                 |> List.fold_left min max_int
               in
               s <= b && finish >= a)
             starts)
      sync_start false
  in
  let in_window l a b = List.filter (fun t -> t >= a && t <= b) l in
  let cause a b =
    (* Rounds plausibly blocked during the window: the last round started
       before it, everything started inside it, and the next expected one. *)
    let stuck =
      List.fold_left
        (fun acc r -> if r.r_start <= a then Some r.r_round else acc)
        None rounds
    in
    let started_in =
      List.filter_map
        (fun r -> if r.r_start >= a && r.r_start <= b then Some r.r_round else None)
        rounds
    in
    let candidates =
      match (stuck, started_in) with
      | None, [] -> []
      | Some s, [] -> [ s; s + 1 ]
      | None, l -> l @ [ List.fold_left max 0 l + 1 ]
      | Some s, l -> (s :: l) @ [ List.fold_left max s l + 1 ]
    in
    let fired l =
      List.filter_map
        (fun (ts, src) -> if ts >= a && ts <= b then Some src else None)
        l
      |> List.sort_uniq compare
    in
    let muted_srcs = fired mutes in
    (* Prefer observed leader pairs over the modular guess: a round whose
       anchor committed somewhere in the trace plainly had a functioning
       leader, so only anchor-less candidate rounds can be leader-blocked.
       (Without this filter, a crash+mute combination misattributes: rounds
       that merely *started* during a recovery-induced stall match the
       muted node through the r-mod-n fallback and steal the blame from
       state sync.) *)
    let blocked =
      List.filter (fun r -> not (Hashtbl.mem leader_obs r)) candidates
    in
    let leader_match rounds srcs =
      List.find_opt
        (fun src -> List.exists (fun r -> leader_of r = src) rounds)
        srcs
    in
    match leader_match blocked muted_srcs with
    | Some l -> Printf.sprintf "muted_leader(%d)" l
    | None -> (
        (* A griefed round's anchor does commit — just almost a timeout
           late — so the grief check matches any candidate round the
           griefer leads, observed or not. *)
        match leader_match candidates (fired griefs) with
        | Some g -> Printf.sprintf "grief_leader(%d)" g
        | None ->
            if in_window partitions a b <> [] then "partition"
            else (
              (* Before state_sync: a sync storm's victim is by definition
                 mid-recovery, and the amplification — not the recovery —
                 owns the stall. *)
              match fired storms with
              | _ :: _ -> "sync_storm"
              | [] -> (
                  if sync_in_flight a b then "state_sync"
                  else
                    match fired censors with
                    | c :: _ -> Printf.sprintf "censorship(%d)" c
                    | [] -> (
                        match fired equivs with
                        | e :: _ -> Printf.sprintf "equivocation(%d)" e
                        | [] -> (
                            match fired reorders with
                            | r :: _ -> Printf.sprintf "reorder(%d)" r
                            | [] ->
                                if
                                  List.length (in_window pull_times a b) >= 100
                                then "pull_storm"
                                else "unknown")))))
  in
  let stalls =
    no_commit_stall @ commit_stalls @ round_stalls
    |> List.map (fun (kind, a, b, gap) ->
           { st_kind = kind; st_from = a; st_until = b; st_gap_us = gap;
             st_cause = cause a b })
    |> List.sort (fun x y ->
           compare (x.st_from, x.st_until, x.st_kind) (y.st_from, y.st_until, y.st_kind))
  in
  {
    n;
    events = !events;
    first_ts;
    last_ts;
    paths;
    distinct_vertices = Hashtbl.length vertex_commit_ts;
    segments;
    e2e;
    rounds;
    round_advance;
    pull_retries = !pulls;
    uplinks;
    median_commit_gap_us = median_commit_gap;
    median_round_gap_us = median_round_gap;
    stalls;
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let ms us = float_of_int us /. 1000.0

let rounds_span rounds =
  match rounds with
  | [] -> None
  | first :: _ ->
      Some
        ( first.r_round,
          List.fold_left (fun acc r -> max acc r.r_round) first.r_round rounds )

let human r =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "== clanbft trace analysis ==\n";
  pf "events             %d\n" r.events;
  pf "nodes              %d\n" r.n;
  pf "span               %.3f s .. %.3f s\n"
    (float_of_int r.first_ts /. 1e6)
    (float_of_int r.last_ts /. 1e6);
  pf "commit paths       %d (%d distinct vertices)\n" (List.length r.paths)
    r.distinct_vertices;
  pf "\n-- commit critical path (creation -> commit, per committing replica) --\n";
  pf "%-16s %10s %10s %10s %10s\n" "segment" "p50 ms" "p99 ms" "mean ms" "max ms";
  List.iter
    (fun (seg, d) ->
      pf "%-16s %10.1f %10.1f %10.1f %10.1f\n" (segment_name seg) (ms d.p50_us)
        (ms d.p99_us) (d.mean_us /. 1000.0) (ms d.max_us))
    r.segments;
  pf "%-16s %10.1f %10.1f %10.1f %10.1f\n" "end_to_end" (ms r.e2e.p50_us)
    (ms r.e2e.p99_us)
    (r.e2e.mean_us /. 1000.0)
    (ms r.e2e.max_us);
  pf "\n-- rounds --\n";
  (match rounds_span r.rounds with
  | Some (lo, hi) -> pf "rounds started     %d (%d .. %d)\n" (List.length r.rounds) lo hi
  | None -> pf "rounds started     0\n");
  pf "round advance      p50 %.1f ms  p99 %.1f ms  max %.1f ms\n"
    (ms r.round_advance.p50_us) (ms r.round_advance.p99_us)
    (ms r.round_advance.max_us);
  pf "pull retries       %d\n" r.pull_retries;
  let span = max 1 (r.last_ts - r.first_ts) in
  if r.uplinks <> [] then begin
    pf "\n-- uplink occupancy --\n";
    pf "%-6s %12s %7s %12s %10s %14s\n" "node" "busy ms" "busy%" "queued ms" "bursts"
      "bytes";
    List.iter
      (fun u ->
        pf "%-6d %12.1f %6.1f%% %12.1f %10d %14d\n" u.u_node (ms u.u_busy_us)
          (100.0 *. float_of_int u.u_busy_us /. float_of_int span)
          (ms u.u_queue_us) u.u_bursts u.u_bytes)
      r.uplinks
  end;
  pf "\n-- stalls (median gaps: commit %.1f ms, round %.1f ms) --\n"
    (ms r.median_commit_gap_us) (ms r.median_round_gap_us);
  if r.stalls = [] then pf "none\n"
  else
    List.iter
      (fun s ->
        pf "[%8.3f s .. %8.3f s] %-6s silent for %8.1f ms  cause: %s\n"
          (float_of_int s.st_from /. 1e6)
          (float_of_int s.st_until /. 1e6)
          (match s.st_kind with `Commit -> "commit" | `Round -> "round")
          (ms s.st_gap_us) s.st_cause)
      r.stalls;
  Buffer.contents b

let dist_json d =
  let int i = Json.Int i in
  Json.Obj
    [
      ("count", int d.count);
      ("p50_us", int d.p50_us);
      ("p99_us", int d.p99_us);
      ("mean_us", Json.Float d.mean_us);
      ("max_us", int d.max_us);
    ]

let to_json r =
  let int i = Json.Int i and str s = Json.String s in
  let uplink u =
    Json.Obj
      [
        ("node", int u.u_node);
        ("busy_us", int u.u_busy_us);
        ("queue_us", int u.u_queue_us);
        ("bursts", int u.u_bursts);
        ("bytes", int u.u_bytes);
      ]
  in
  let stall s =
    Json.Obj
      [
        ("kind", str (match s.st_kind with `Commit -> "commit" | `Round -> "round"));
        ("from_us", int s.st_from);
        ("until_us", int s.st_until);
        ("gap_us", int s.st_gap_us);
        ("cause", str s.st_cause);
      ]
  in
  Json.pretty
    (Json.Obj
       [
         ("schema", str "clanbft/analysis/v2");
         ("n", int r.n);
         ("events", int r.events);
         ("first_ts_us", int r.first_ts);
         ("last_ts_us", int r.last_ts);
         ("commit_paths", int (List.length r.paths));
         ("distinct_vertices", int r.distinct_vertices);
         ( "segments",
           Json.Obj (List.map (fun (seg, d) -> (segment_name seg, dist_json d)) r.segments) );
         ("e2e", dist_json r.e2e);
         ( "rounds",
           Json.Obj
             [
               ("started", int (List.length r.rounds));
               ("advance", dist_json r.round_advance);
               ("pull_retries", int r.pull_retries);
             ] );
         ("uplinks", Json.List (List.map uplink r.uplinks));
         ("median_commit_gap_us", int r.median_commit_gap_us);
         ("median_round_gap_us", int r.median_round_gap_us);
         ("stalls", Json.List (List.map stall r.stalls));
       ])
