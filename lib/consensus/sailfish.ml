open Clanbft_types
open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Time = Clanbft_sim.Time
module Store = Clanbft_dag.Store
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Prof = Clanbft_obs.Prof
module Rbc = Clanbft_rbc.Rbc_core
module Round_rows = Clanbft_util.Round_rows

let sec_propose = Prof.section "sailfish.propose"
let sec_echo = Prof.section "sailfish.echo"
let sec_commit = Prof.section "sailfish.commit"

let src_log = Logs.Src.create "clanbft.sailfish" ~doc:"Sailfish consensus"

module Log = (val Logs.src_log src_log)

type params = { round_timeout : Time.span; gc_depth : int }

let default_params = { round_timeout = Time.ms 1_500.; gc_depth = 64 }

(* Pull pacing: a missing block or vertex is re-requested from the next
   peer every [sync_retry] (state sync backs off from the same base), a
   peer serves at most [pull_budget] pulls per (slot, requester), and one
   state-sync request streams at most [sync_chunk] rounds of vertices. *)
let sync_retry = Time.ms 150.
let pull_budget = 8
let sync_chunk = 64

(* This layer's side of one merged vertex+block instance (§5): the content
   as first received, and in [flags] whether the block is stored and which
   pulls are running. *)
type slot = {
  mutable vertex : Vertex.t option;
  mutable block : Block.t option;
  mutable flags : int;
}

(* [flags] bits. [stored] marks [block] final: the slot was delivered with
   its vertex (or replayed from the journal) and [on_block] has fired for
   it. *)
let stored = 1
let fetching_vertex = 2
let fetching_block = 4
let has slot bit = slot.flags land bit <> 0
let set slot bit = slot.flags <- slot.flags lor bit
let clear slot bit = slot.flags <- slot.flags land lnot bit

type inst = slot Rbc.inst

(* Verified signature shares for a timeout / no-vote certificate, folded
   into one running aggregate. *)
type share_box = { signers : Bitset.t; acc : Keychain.accumulator }

(* One certificate kind in one round: its shares (made on the first) and
   the certificate, formed from them or received whole. *)
type cert_state = { mutable shares : share_box option; mutable cert : Cert.t option }

(* Everything kept per round: the voters for its leader (the quorum-th
   makes it ready to commit directly), whether this node sent its timeout
   share, the timeout and no-vote certificates (no-vote shares only as
   leader of r+1), and whether state sync counted the round as fetched. *)
type round_state = {
  votes : Bitset.t;
  mutable timeout_sent : bool;
  mutable sync_seen : bool;
  timeout : cert_state;
  no_vote : cert_state;
}

let new_round n =
  let cert () = { shares = None; cert = None } in
  { votes = Bitset.create n; timeout_sent = false; sync_seen = false;
    timeout = cert (); no_vote = cert () }

(* What read-only lookups answer for a round without state, so they
   allocate nothing. Never stored or mutated. *)
let absent_round = new_round 0

let cert_state rs = function Cert.Timeout -> rs.timeout | Cert.No_vote -> rs.no_vote

(* Observability handles, resolved once at construction so the hot paths
   pay an integer add plus (for the trace) one enabled-branch. *)
type obs_handles = {
  o_trace : Trace.t;
  o_pull_retries : Metrics.counter;
  o_inserted : Metrics.counter;
  o_committed : Metrics.counter;
  o_sync_rounds : Metrics.counter;
  o_recovery_wall : Metrics.gauge;
}

type t = {
  me : int;
  config : Config.t;
  keychain : Keychain.t;
  engine : Engine.t;
  net : Msg.t Net.t;
  params : params;
  obsh : obs_handles;
  store : Store.t;
  make_block : round:int -> Block.t;
  on_commit : leader:Vertex.t -> Vertex.t list -> unit;
  on_block : Block.t -> unit;
  rbc : (slot, Msg.t) Rbc.t; (* one merged instance per (round, source) *)
  pending : (int * int, Vertex.t) Hashtbl.t; (* delivered, parents missing *)
  (* Reverse index over [pending]: parent slot -> children buffered on it.
     An insertion wakes exactly the children waiting on that slot instead
     of re-filtering every pending vertex's full parent list — the old
     O(|pending| · edges) rescan per insert dominated at paper scale. *)
  waiters : (int * int, (int * int) list ref) Hashtbl.t;
  rounds : (int, round_state) Hashtbl.t;
  (* round progression *)
  mutable round : int;
  mutable proposed : bool; (* proposed in current round? *)
  mutable started : bool;
  mutable timer_epoch : int;
  (* crash / recovery *)
  mutable halted : bool; (* torn down: ignore messages and stale timers *)
  mutable syncing : bool; (* recovering: pulling history, not proposing *)
  mutable sync_target : int; (* highest round any sync peer reported *)
  mutable sync_replies : int;
  mutable min_propose_round : int; (* never re-propose a journalled round *)
  mutable snapshot_joined : bool; (* rejoined past a GC'd gap *)
  mutable recovery_started_at : Time.t;
  on_deliver : Vertex.t -> unit; (* journal hook, fired before insertion *)
  on_propose : round:int -> unit; (* journal hook, fired before VAL sends *)
  (* commit machinery *)
  mutable last_committed : int;
  ordered : unit Round_rows.t;
  mutable ordered_total : int;
  (* weak-edge bookkeeping *)
  covered : unit Round_rows.t; (* causal history of my proposals *)
  uncovered : Vertex.t Round_rows.t;
  (* Per undelivered instance: the earliest arrival of a valid certificate
     the net was told to deliver (see [settled]). *)
  cert_arrivals : Time.t Round_rows.t;
}

let me t = t.me
let current_round t = t.round
let last_committed_round t = t.last_committed
let committed_count t = t.ordered_total
let dag_size t = Store.size t.store
let quorum t = Config.quorum t.config
let leader_of t round = Config.leader_of_round t.config round

let trace_recovery t ~stage ~round =
  if Trace.enabled t.obsh.o_trace then
    Trace.emit t.obsh.o_trace ~ts:(Engine.now t.engine)
      (Trace.Recovery { node = t.me; stage; round })

(* Remove every binding keyed below round [horizon]: (round, source) keys,
   or plain rounds in [drop_rounds_below]. GC runs these over the whole
   window on every commit, so the key test is an inline integer compare. *)
let drop_below tbl (horizon : int) =
  Hashtbl.fold (fun ((r, _) as k) _ acc -> if r < horizon then k :: acc else acc) tbl []
  |> List.iter (Hashtbl.remove tbl)

let drop_rounds_below tbl (horizon : int) =
  Hashtbl.fold (fun r _ acc -> if r < horizon then r :: acc else acc) tbl []
  |> List.iter (Hashtbl.remove tbl)

(* The round's state, or [absent_round]: for reads, allocates nothing. *)
let round_of t r =
  match Hashtbl.find t.rounds r with rs -> rs | exception Not_found -> absent_round

(* The round's state, made on first use: for writes. *)
let round_state t r =
  match Hashtbl.find t.rounds r with
  | rs -> rs
  | exception Not_found ->
      let rs = new_round (Config.n t.config) in
      Hashtbl.replace t.rounds r rs;
      rs

(* The slot's block once stored; see [slot]. *)
let block_of t ~round ~source =
  match Rbc.find t.rbc ~sender:source ~round with
  | Some { ext = { block; _ } as slot; _ } when has slot stored -> block
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Vertex validity (checked before echoing) *)

(* A round-r vertex votes for the round-(r-1) leader or justifies the
   missing edge: the round-r leader with a no-vote certificate, anybody
   else with a timeout certificate. *)
let leader_edge_ok t (v : Vertex.t) =
  v.round = 0
  || Vertex.has_strong_edge_to v ~round:(v.round - 1) ~source:(leader_of t (v.round - 1))
  ||
  let kind, cert =
    if v.source = leader_of t v.round then (Cert.No_vote, v.nvc) else (Cert.Timeout, v.tc)
  in
  match cert with
  | Some c ->
      c.kind = kind && c.round = v.round - 1 && Cert.verify t.keychain ~quorum:(quorum t) c
  | None -> false

(* How many strong parents a round-r vertex must / may carry depends on the
   edge policy: dense Sailfish demands the full >= 2f+1 of Fig. 4, the
   sparse mode only a bounded handful (commit safety then rests on the
   mandatory structural edges — see [sparse_strong_refs]). *)
let strong_edges_ok t (v : Vertex.t) =
  let count = Array.length v.strong_edges in
  if v.round = 0 then count = 0
  else
    match Config.edge_policy t.config with
    | Config.Dense -> count >= quorum t
    | Config.Sparse _ as p ->
        count >= 1 && count <= Config.sparse_strong_cap p

(* Edge sources index per-source slots, so each must lie in [0 .. n-1]; a
   dense vertex's 2f+1 strong parents must also be distinct. Honest strong
   edges are strictly ascending by source ([Store.vertices_at],
   [sparse_strong_parents]), so the dense check demands exactly that. Plain
   recursive functions: no closure, no allocation per received vertex. *)
let rec sources_in_range (edges : Vertex.vref array) n i =
  i >= Array.length edges
  || (edges.(i).source >= 0 && edges.(i).source < n && sources_in_range edges n (i + 1))

let rec sources_ascending (edges : Vertex.vref array) n i prev =
  i >= Array.length edges
  ||
  let s = edges.(i).source in
  s > prev && s < n && sources_ascending edges n (i + 1) s

let edge_sources_ok t (v : Vertex.t) =
  let n = Config.n t.config in
  sources_in_range v.weak_edges n 0
  &&
  match Config.edge_policy t.config with
  | Config.Dense -> sources_ascending v.strong_edges n 0 (-1)
  | Config.Sparse _ -> sources_in_range v.strong_edges n 0

let vertex_valid t (v : Vertex.t) =
  v.round >= 0
  && v.source >= 0
  && v.source < Config.n t.config
  && strong_edges_ok t v
  && edge_sources_ok t v
  && leader_edge_ok t v

(* Does this proposer's slot carry a real block? Vertex-only proposers use
   the zero digest. *)
let expects_block (v : Vertex.t) =
  not (Digest32.equal v.block_digest Digest32.zero)

let block_matches (v : Vertex.t) = function
  | Some b -> Digest32.equal (Block.digest b) v.block_digest
  | None -> false

(* ------------------------------------------------------------------ *)
(* Sparse-edge parent selection *)

(* Deterministic, seed-keyed rank for sampled parent selection: a
   splitmix-style avalanche over (seed, round, proposer, candidate). Each
   honest proposer draws a different k-sample per round, so the union of
   sampled edges covers a round within a couple of steps, while the fixed
   seed keeps every run replayable. *)
let edge_rank ~seed ~round ~me candidate =
  let h =
    Int64.to_int seed
    lxor (round * 0x9E3779B9)
    lxor (me * 0x85EBCA6B)
    lxor (candidate * 0xC2B2AE35)
  in
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B land max_int in
  let h = h lxor (h lsr 15) in
  let h = h * 0x846CA68B land max_int in
  h lxor (h lsr 16)

(* Sparse strong-parent selection for a round-r proposal (r > 0). Picks:
   - my own round-(r-1) vertex (chain continuity),
   - the round-(r-1) leader's vertex when delivered — that edge IS the
     leader vote, exactly as in dense mode,
   - one "link" parent with a strong edge to the round-(r-2) leader: if
     that leader was directly committed then 2f+1 round-(r-1) vertices
     carry such an edge, so any quorum-sized delivered set contains a
     voter — the link keeps a committed-but-skipped leader strong-path
     reachable from later anchors,
   - k further parents, ranked by {!edge_rank}.
   Unpicked round-(r-1) vertices stay uncovered; they are absorbed
   transitively through the sampled parents' histories or by later
   (capped) weak edges. Result is sorted by source — the order the
   compact wire form requires. *)
let sparse_strong_parents t ~k ~seed r =
  let candidates = Store.vertices_at t.store (r - 1) in
  let picked = Bitset.create (Config.n t.config) in
  let chosen = ref [] in
  let pick (v : Vertex.t) =
    if Bitset.add picked v.source then chosen := v :: !chosen
  in
  let lead1 = leader_of t (r - 1) in
  List.iter
    (fun (v : Vertex.t) -> if v.source = t.me || v.source = lead1 then pick v)
    candidates;
  if r >= 2 then begin
    let lead2 = leader_of t (r - 2) in
    let is_link (v : Vertex.t) =
      Vertex.has_strong_edge_to v ~round:(r - 2) ~source:lead2
    in
    if
      not
        (List.exists
           (fun (v : Vertex.t) -> Bitset.mem picked v.source && is_link v)
           candidates)
    then Option.iter pick (List.find_opt is_link candidates)
  end;
  let ranked =
    List.filter_map
      (fun (v : Vertex.t) ->
        if Bitset.mem picked v.source then None
        else Some (edge_rank ~seed ~round:r ~me:t.me v.source, v))
      candidates
    |> List.sort (fun (ra, (va : Vertex.t)) (rb, (vb : Vertex.t)) ->
           match Int.compare ra rb with
           | 0 -> Int.compare va.source vb.source
           | c -> c)
  in
  List.iteri (fun i (_, v) -> if i < k then pick v) ranked;
  List.sort (fun (a : Vertex.t) b -> Int.compare a.source b.source) !chosen
  |> List.map Vertex.ref_of |> Array.of_list

let in_payload_clan_of t ~proposer = Config.in_payload_clan t.config ~proposer t.me

(* --- message dispatch ------------------------------------------------ *)

(* [Msg.round] without its option (this runs on every message). *)
let msg_round = function
  | Msg.Val { vertex; _ } | Msg.Vertex_reply { vertex; _ } -> vertex.Vertex.round
  | Msg.Echo { round; _ }
  | Msg.Echo_cert { round; _ }
  | Msg.Timeout_share { round; _ }
  | Msg.No_vote_share { round; _ }
  | Msg.Block_request { round; _ }
  | Msg.Vertex_request { round; _ } ->
      round
  | Msg.Timeout_cert c -> c.Cert.round
  | Msg.Block_reply { block } -> block.Block.round
  (* State-sync control traffic carries no round of its own and is
     dispatched before the GC-floor gate; never consulted. *)
  | Msg.Sync_request _ | Msg.Sync_reply _ -> max_int

(* The copies [handle] is certain to ignore at their arrival: everything
   once halted, anything below the GC floor, an echo relayed by anyone but
   its signer, and a certificate for a delivered instance or one landing
   at or after a valid certificate for the same instance already let
   through. That one is delivered first (the net schedules every copy
   answered [false] at the arrival it was asked about, and same-µs events
   run in scheduling order), and the instance then ignores certificates.
   [halted], the floor and [delivered] never go back, and an instance is
   pruned only below the floor, as {!Net.set_handler} requires. The echo
   clause runs for ~n³ copies a round, so it makes O(1) tests only; the
   certificate clause verifies a copy only when it would become the
   earliest one let through. *)
let settled t ~src ~arrival msg =
  match msg with
  | Msg.Echo { round; signer; _ } -> src <> signer || t.halted || round < Store.floor t.store
  | Msg.Echo_cert { round; source; vertex_digest; agg; _ } -> (
      t.halted
      || round < Store.floor t.store
      ||
      (* Arrivals are below [max_int]: a slot without a record settles
         nothing here. *)
      arrival >= Round_rows.find_or t.cert_arrivals ~round ~source max_int
      || Rbc.delivered t.rbc ~sender:source ~round
      || begin
           if Rbc.cert_valid t.rbc ~sender:source ~round vertex_digest agg then
             Round_rows.set t.cert_arrivals ~round ~source arrival;
           false
         end)
  | _ -> t.halted || msg_round msg < Store.floor t.store

let rec handle t ~src msg =
  if not t.halted then
    match msg with
    (* State-sync control messages bypass the floor gate: a recovering
       peer's [from_round] may sit below our floor, and a reply's floor
       field is exactly what tells it so. *)
    | Msg.Sync_request { from_round } -> on_sync_request t ~src ~from_round
    | Msg.Sync_reply { floor; highest } -> on_sync_reply t ~floor ~highest
    (* Traffic for garbage-collected rounds is dropped outright: it can no
       longer affect the committed prefix, and processing it would recreate
       pruned state (or try to insert below the store's floor). *)
    | _ when msg_round msg < Store.floor t.store -> ()
    | Msg.Val { vertex; block; signature } -> on_val t ~src vertex block signature
    | Msg.Echo { round; source; vertex_digest = digest; signer; signature } ->
        if src = signer then begin
          Prof.enter sec_echo;
          (match Rbc.on_echo t.rbc ~sender:source ~round digest ~signer signature with
          | Some inst ->
              certified t inst digest;
              (* Delivered earlier through a received certificate, the
                 instance kept its tally to form this one. *)
              if Option.is_some inst.ext.vertex then Rbc.drop_tally inst
          | None -> ());
          Prof.leave sec_echo
        end
    | Msg.Echo_cert { round; source; vertex_digest = digest; agg; clan_echoes = _ } -> (
        match Rbc.on_echo_cert t.rbc ~sender:source ~round digest agg with
        | Some inst -> certified t inst digest
        | None -> ())
    | Msg.Timeout_share { round; signer; signature } ->
        if src = signer then on_share t Cert.Timeout ~round ~signer signature
    | Msg.No_vote_share { round; signer; signature } ->
        if src = signer then on_share t Cert.No_vote ~round ~signer signature
    | Msg.Timeout_cert c -> on_timeout_cert t c
    | Msg.Block_request { round; source } ->
        Rbc.serve t.rbc ~sender:source ~round ~src (fun inst ->
            Option.map (fun block -> Msg.Block_reply { block }) inst.ext.block)
    | Msg.Block_reply { block } -> on_block_reply t block
    | Msg.Vertex_request { round; source } ->
        Rbc.serve t.rbc ~sender:source ~round ~src (fun inst ->
            match inst.ext.vertex with
            | Some vertex when Rbc.is_delivered inst ->
                let clan = Config.in_payload_clan t.config ~proposer:source src in
                let block = if clan then inst.ext.block else None in
                Some (Msg.Vertex_reply { vertex; block })
            | _ -> None)
    | Msg.Vertex_reply { vertex; block } -> on_vertex_reply t vertex block

(* --- VAL and the merged instance ------------------------------------ *)

and on_val t ~src (v : Vertex.t) block signature =
  if
    v.source = src
    && Keychain.verify t.keychain ~signer:src (Msg.val_signing_string v) signature
    && vertex_valid t v
  then begin
    let inst = Rbc.get t.rbc ~sender:v.source ~round:v.round in
    Rbc.trace t.rbc inst Trace.Val;
    register_vote t v;
    if acceptable inst v then adopt t inst v block
  end

(* Only the slot's first copy is kept, and once a certificate landed (it
   can outrun a VAL stuck in the sender's uplink queue) only the certified
   content is acceptable. *)
and acceptable (inst : inst) (v : Vertex.t) =
  inst.ext.vertex = None
  && match Rbc.agreed inst with Some d -> Digest32.equal v.digest d | None -> true

and adopt t (inst : inst) (v : Vertex.t) block =
  let slot = inst.ext in
  let clan = in_payload_clan_of t ~proposer:v.source in
  slot.vertex <- Some v;
  if clan && (not (has slot stored)) && block_matches v block then slot.block <- block;
  (* Clan members echo only once they hold both the vertex and its block
     (§5); everybody else echoes on the vertex alone. *)
  if (not (expects_block v)) || (not clan) || block_matches v slot.block then
    Rbc.send_echo t.rbc inst v.digest;
  if Rbc.is_delivered inst then vertex_available t inst v

(* The slot's vertex digest is certified: the RBC instance completes. *)
and certified t (inst : inst) digest =
  if not (Rbc.is_delivered inst) then begin
    Rbc.mark_delivered inst;
    Round_rows.remove t.cert_arrivals ~round:inst.round ~source:inst.sender;
    Rbc.agree t.rbc inst digest;
    let slot = inst.ext in
    match slot.vertex with
    | Some v when Digest32.equal v.digest digest -> vertex_available t inst v
    | held ->
        (* Discard an equivocator's non-certified copy; a stored block is
           the certified vertex's. *)
        if Option.is_some held then begin
          slot.vertex <- None;
          if not (has slot stored) then slot.block <- None
        end;
        fetch_vertex t inst
  end

(* --- vertex availability, DAG insertion ----------------------------- *)

(* The slot is delivered AND its vertex is at hand, so [fetch_vertex] no
   longer needs the echo voters: once this node has its own certificate
   too, nothing reads the tally again. *)
and vertex_available t (inst : inst) (v : Vertex.t) =
  Rbc.drop_tally inst;
  (match inst.ext.block with
  | Some b when expects_block v -> block_available t inst b
  | _ -> ());
  try_insert t v;
  maybe_fetch_block t inst

and try_insert t (v : Vertex.t) =
  if not (Store.mem t.store ~round:v.round ~source:v.source) then begin
    if Store.parents_present t.store v then insert t v
    else
      match Store.missing_parents t.store v with
      | [] -> insert t v (* unreachable: presence check just failed *)
      | missing ->
          if not (Hashtbl.mem t.pending (v.round, v.source)) then begin
            let key = (v.round, v.source) in
            Hashtbl.replace t.pending key v;
            List.iter
              (fun (r : Vertex.vref) ->
                let slot = (r.round, r.source) in
                match Hashtbl.find_opt t.waiters slot with
                | Some l -> if not (List.mem key !l) then l := key :: !l
                | None -> Hashtbl.replace t.waiters slot (ref [ key ]))
              missing;
            request_parents t v missing
          end
  end

and insert t (v : Vertex.t) =
  (* Journal before acting: a crash after this point replays the vertex,
     so nothing derived from it (votes, commits, echoes) is ever lost. *)
  t.on_deliver v;
  Store.add t.store v;
  Hashtbl.remove t.pending (v.round, v.source);
  Metrics.incr t.obsh.o_inserted;
  if Trace.enabled t.obsh.o_trace then
    Trace.emit t.obsh.o_trace ~ts:(Engine.now t.engine)
      (Trace.Vertex_deliver { node = t.me; round = v.round; source = v.source });
  if not (Round_rows.mem t.covered ~round:v.round ~source:v.source) then
    Round_rows.set t.uncovered ~round:v.round ~source:v.source v;
  (* Wake only the children buffered on this slot. A woken child may still
     miss other parents (its waiter entries on those slots remain), so it
     is re-checked, not blindly inserted. *)
  (match Hashtbl.find_opt t.waiters (v.round, v.source) with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.waiters (v.round, v.source);
      List.iter
        (fun key ->
          match Hashtbl.find_opt t.pending key with
          | Some child when Store.parents_present t.store child ->
              insert t child
          | Some _ | None -> ())
        (List.rev !l));
  try_commit t;
  maybe_advance t;
  check_caught_up t

(* --- missing data pulls ---------------------------------------------- *)

and request_parents t (child : Vertex.t) missing =
  List.iter
    (fun (r : Vertex.vref) ->
      let inst = Rbc.get t.rbc ~sender:r.source ~round:r.round in
      (* Ask the child's proposer first (it certainly held the parent),
         falling back to the parent's own source. *)
      if inst.ext.vertex = None then
        fetch_vertex ~seed:[ child.source; r.source ] t inst;
      (* The child is RBC-delivered, so a quorum certified its content —
         edges included. The edge digest therefore certifies the parent
         too: complete the parent's RBC instance by reference, so a node
         that lost every echo for it (e.g. behind a partition) can still
         deliver via fetch and walk the chain back to its frontier. *)
      certified t inst r.digest)
    missing

(* Between sweeps the candidates are recomputed from the echo voters:
   anyone who echoed the certified digest has seen the vertex. *)
and fetch_vertex ?(cycles = 0) ?(last = 0) ?seed t (inst : inst) =
  let slot = inst.ext in
  if not (has slot fetching_vertex) then begin
    set slot fetching_vertex;
    let candidates =
      match (seed, Rbc.agreed inst) with
      | Some seed, _ -> seed
      | None, Some d -> List.filter (fun i -> i <> t.me) (Rbc.echo_voters inst d)
      | None, None -> []
    in
    let candidates = if candidates = [] then [ inst.sender ] else candidates in
    (* Reset the sweep backoff on progress: a grown candidate set means new
       echoes landed since the last sweep, so someone reachable has it. *)
    let ring = List.length candidates in
    Rbc.sweep t.rbc inst candidates
      ~cycles:(if ring > last then 0 else cycles)
      ~live:(fun () ->
        (not t.halted) && slot.vertex = None && inst.round >= Store.floor t.store)
      ~request:(Msg.Vertex_request { round = inst.round; source = inst.sender })
      ~restart:(fun cycles ->
        clear slot fetching_vertex;
        if slot.vertex = None then fetch_vertex ~cycles ~last:ring t inst)
  end

(* The block candidate set is the (fixed) payload clan, so there is no
   grown-candidate reset; a fresh trigger (the flag cleared by success or
   GC) starts over at full rate. *)
and maybe_fetch_block ?(cycles = 0) t (inst : inst) =
  let slot = inst.ext in
  match (slot.vertex, Config.payload_clan t.config ~proposer:inst.sender) with
  | Some v, Some clan
    when Rbc.is_delivered inst && slot.block = None && expects_block v
         && in_payload_clan_of t ~proposer:v.source && not (has slot fetching_block)
    ->
      set slot fetching_block;
      Rbc.sweep t.rbc inst ~cycles
        (List.filter (fun i -> i <> t.me) (Array.to_list clan))
        ~live:(fun () ->
          (not t.halted) && slot.block = None && inst.round >= Store.floor t.store)
        ~request:(Msg.Block_request { round = inst.round; source = inst.sender })
        ~restart:(fun cycles ->
          clear slot fetching_block;
          maybe_fetch_block ~cycles t inst)
  | _ -> ()

(* Blocks are pulled only for delivered slots, and only the certified
   vertex's block is taken: an unsolicited reply for an undelivered slot
   could carry an equivocator's block for a copy that never certifies. *)
and on_block_reply t (b : Block.t) =
  match Rbc.find t.rbc ~sender:b.proposer ~round:b.round with
  | Some ({ ext = { vertex = Some v; block = None; _ } as slot; _ } as inst)
    when Rbc.is_delivered inst
         && Digest32.equal (Block.digest b) v.block_digest
         && in_payload_clan_of t ~proposer:b.proposer ->
      slot.block <- Some b;
      block_available t inst b
  | _ -> ()

and block_available t (inst : inst) b =
  if not (has inst.ext stored) then begin
    set inst.ext stored;
    t.on_block b
  end

and on_vertex_reply t (v : Vertex.t) block =
  (* Recovery progress metric: count each distinct round we receive sync /
     pull material for while catching up. *)
  if t.syncing then begin
    let rs = round_state t v.round in
    if not rs.sync_seen then begin
      rs.sync_seen <- true;
      Metrics.incr t.obsh.o_sync_rounds
    end
  end;
  match Rbc.find t.rbc ~sender:v.source ~round:v.round with
  | Some { ext = { vertex = Some _; _ }; _ } -> ()
  | _ ->
      if vertex_valid t v then begin
        let inst = Rbc.get t.rbc ~sender:v.source ~round:v.round in
        if acceptable inst v then begin
          register_vote t v;
          adopt t inst v block
        end
      end

(* --- state sync (crash recovery) ------------------------------------ *)

and on_sync_request t ~src ~from_round =
  (* Announce our window, then stream a bounded chunk of certified
     vertices starting at the requester's frontier. Sync replies reuse the
     ordinary [Vertex_reply] path (same validation, same insertion), and
     are streamed in ascending round order so parents always precede
     children. The requester re-asks from its new frontier, so a chunk cap
     bounds per-request burst size without capping total transfer. *)
  let floor = Store.floor t.store in
  let highest = Store.highest_round t.store in
  Net.send t.net ~src:t.me ~dst:src (Msg.Sync_reply { floor; highest });
  let lo = Int.max from_round floor in
  let hi = Int.min highest (lo + sync_chunk - 1) in
  for r = lo to hi do
    List.iter
      (fun (vertex : Vertex.t) ->
        let block =
          if Config.in_payload_clan t.config ~proposer:vertex.source src then
            block_of t ~round:vertex.round ~source:vertex.source
          else None
        in
        Net.send t.net ~src:t.me ~dst:src (Msg.Vertex_reply { vertex; block }))
      (Store.vertices_at t.store r)
  done

and on_sync_reply t ~floor ~highest =
  if t.syncing then begin
    t.sync_replies <- t.sync_replies + 1;
    if highest > t.sync_target then t.sync_target <- highest;
    (* The peer garbage-collected past our frontier: the gap can never be
       refilled vertex by vertex. Adopt the peer's floor as a join point —
       everything below it is already committed by a quorum and pruned
       everywhere we could ask. *)
    if floor > Store.highest_round t.store + 1 then begin
      Store.prune_below t.store ~round:floor;
      if floor - 1 > t.last_committed then t.last_committed <- floor - 1;
      t.snapshot_joined <- true;
      drop_below t.pending floor;
      drop_below t.waiters floor;
      insert_unblocked t;
      trace_recovery t ~stage:"snapshot_join" ~round:floor
    end;
    check_caught_up t
  end

and check_caught_up t =
  if
    t.syncing && t.sync_replies > 0
    && Store.highest_round t.store >= t.sync_target
    && t.round > t.sync_target
  then begin
    (* Caught up: our DAG covers every round a peer reported and our round
       clock has moved past them, so any round we now propose in is fresh —
       no journalled proposal can exist for it. *)
    t.syncing <- false;
    if t.round > t.min_propose_round then t.min_propose_round <- t.round;
    Metrics.set t.obsh.o_recovery_wall
      (Time.to_ms (Engine.now t.engine - t.recovery_started_at));
    trace_recovery t ~stage:"caught_up" ~round:t.round;
    Log.debug (fun m -> m "node %d caught up at r%d" t.me t.round);
    arm_timer t;
    maybe_propose t
  end

and sync_tick t ~cursor ~cycles ~last_frontier =
  if (not t.halted) && t.syncing then begin
    let n = Config.n t.config in
    let frontier = Store.highest_round t.store in
    (* Progress resets the backoff; a dry spell (partitioned peers, lost
       replies) backs off like the pull path, capped at 16x. *)
    let cycles = if frontier > last_frontier then 0 else cycles in
    let peer = cursor mod n in
    let peer = if peer = t.me then (peer + 1) mod n else peer in
    Metrics.incr t.obsh.o_pull_retries;
    Net.send t.net ~src:t.me ~dst:peer
      (Msg.Sync_request { from_round = frontier + 1 });
    let backoff = sync_retry * (1 lsl Int.min cycles 4) in
    Engine.schedule_after t.engine backoff (fun () ->
        sync_tick t ~cursor:(peer + 1) ~cycles:(cycles + 1)
          ~last_frontier:frontier);
    check_caught_up t
  end

(* --- leader votes and commits --------------------------------------- *)

and register_vote t (v : Vertex.t) =
  if v.round > 0 then begin
    let prev = v.round - 1 in
    if Vertex.has_strong_edge_to v ~round:prev ~source:(leader_of t prev) then begin
      let votes = (round_state t prev).votes in
      (* The quorum-th vote makes the round ready to commit directly. *)
      if Bitset.add votes v.source && Bitset.cardinal votes = quorum t then try_commit t
    end
  end

and try_commit t =
  Prof.enter sec_commit;
  (* Process direct-commit-ready leader rounds in ascending order; each one
     drags in skipped leaders reachable by strong paths (indirect rule). *)
  (* the highest ready round whose leader vertex is present *)
  let rec next_ready r =
    if r <= t.last_committed then None
    else if
      Store.mem t.store ~round:r ~source:(leader_of t r)
      && Bitset.cardinal (round_of t r).votes >= quorum t
    then Some r
    else next_ready (r - 1)
  in
  (match next_ready (Store.highest_round t.store + 1) with
  | None -> ()
  | Some r ->
      let leader_vertex s =
        Store.find t.store ~round:s ~source:(leader_of t s)
      in
      let anchor = Option.get (leader_vertex r) in
      (* Walk back across skipped rounds collecting indirectly committed
         leaders. *)
      let chain = ref [ anchor ] in
      let current = ref anchor in
      for s = r - 1 downto t.last_committed + 1 do
        match leader_vertex s with
        | Some l
          when Store.strong_path t.store !current ~round:s ~source:l.source ->
            chain := l :: !chain;
            current := l
        | _ -> ()
      done;
      List.iter
        (fun (l : Vertex.t) ->
          let history =
            Store.causal_history t.store l ~skip:(fun ~round ~source ->
                Round_rows.mem t.ordered ~round ~source)
          in
          List.iter
            (fun (v : Vertex.t) ->
              Round_rows.set t.ordered ~round:v.round ~source:v.source ();
              if Trace.enabled t.obsh.o_trace then
                Trace.emit t.obsh.o_trace ~ts:(Engine.now t.engine)
                  (Trace.Vertex_commit
                     { node = t.me; round = v.round; source = v.source;
                       leader_round = l.round }))
            history;
          t.ordered_total <- t.ordered_total + List.length history;
          Metrics.add t.obsh.o_committed (List.length history);
          Log.debug (fun m ->
              m "node %d commits leader r%d (%d vertices)" t.me l.round
                (List.length history));
          t.on_commit ~leader:l history)
        !chain;
      t.last_committed <- r;
      garbage_collect t;
      try_commit t);
  Prof.leave sec_commit

and garbage_collect t =
  let horizon = t.last_committed - t.params.gc_depth in
  if horizon > 0 then begin
    Store.prune_below t.store ~round:horizon;
    Round_rows.drop_below t.ordered horizon;
    Round_rows.drop_below t.covered horizon;
    Round_rows.drop_below t.uncovered horizon;
    Round_rows.drop_below t.cert_arrivals horizon;
    drop_below t.pending horizon;
    drop_below t.waiters horizon;
    Rbc.prune_below t.rbc ~round:horizon;
    drop_rounds_below t.rounds horizon;
    insert_unblocked t
  end

(* Raising the floor may satisfy a pending vertex whose only missing
   parents were just pruned (references below the floor count as
   present) — those parents will never insert, so the waiter index cannot
   wake such children; rescan the (small, post-drop) pending set. *)
and insert_unblocked t =
  Hashtbl.fold
    (fun _ v acc -> if Store.parents_present t.store v then v :: acc else acc)
    t.pending []
  |> List.iter (insert t)

(* --- round progression ---------------------------------------------- *)

and maybe_advance t =
  if t.started then begin
    let r = t.round in
    (* While state-syncing we advance on a quorum of vertices alone: the
       leader-or-TC condition is unattainable for history (timeout-share
       quorums are exact, so old TCs can never re-form for a late joiner),
       and it only exists to pace live rounds anyway. *)
    if
      Store.count_at t.store r >= quorum t
      && (t.syncing
         || Store.mem t.store ~round:r ~source:(leader_of t r)
         || Option.is_some (round_of t r).timeout.cert)
    then advance t (r + 1)
    else maybe_propose t
  end

and advance t r =
  if r > t.round then begin
    t.round <- r;
    t.proposed <- false;
    (* No round timer during state sync: historical rounds are not late,
       and timeout shares for them would be noise. [check_caught_up] arms
       the timer when live operation resumes. *)
    if not t.syncing then arm_timer t;
    maybe_propose t;
    (* Catch up if successor rounds are already complete. *)
    maybe_advance t
  end

and maybe_propose t =
  if
    t.started && (not t.proposed) && (not t.syncing)
    && t.round >= t.min_propose_round
  then begin
    let r = t.round in
    (* The round leader may only propose without an edge to the previous
       leader when it holds a no-vote certificate; otherwise it waits for
       whichever arrives first. *)
    if
      r = 0 || t.me <> leader_of t r
      || Store.mem t.store ~round:(r - 1) ~source:(leader_of t (r - 1))
      || Option.is_some (round_of t (r - 1)).no_vote.cert
    then propose t r
  end

(* Mark every vertex reachable from [refs] as covered by my proposals, so
   it never needs a weak edge from me again. Amortised O(1) per vertex. *)
and mark_covered t refs =
  let rec visit (r : Vertex.vref) =
    (* A reference outside the committee names no vertex to cover. *)
    if
      r.source >= 0
      && r.source < Config.n t.config
      && not (Round_rows.mem t.covered ~round:r.round ~source:r.source)
    then begin
      Round_rows.set t.covered ~round:r.round ~source:r.source ();
      Round_rows.remove t.uncovered ~round:r.round ~source:r.source;
      match Store.find_ref t.store r with
      | Some v ->
          Array.iter visit v.strong_edges;
          Array.iter visit v.weak_edges
      | None -> ()
    end
  in
  List.iter visit refs

and propose t r =
  Prof.enter sec_propose;
  t.proposed <- true;
  (* Journal the round before any VAL leaves: after a crash the replayed
     marker forbids re-proposing it, so we can never equivocate. *)
  t.on_propose ~round:r;
  (* The origin anchor of this instance's latency attribution: everything
     downstream (VAL arrival, echo quorum, commit) is measured from here. *)
  Rbc.trace_phase t.rbc ~sender:t.me ~round:r Trace.Propose;
  let policy = Config.edge_policy t.config in
  let strong_edges =
    if r = 0 then [||]
    else
      match policy with
      | Config.Dense ->
          Store.vertices_at t.store (r - 1)
          |> List.map Vertex.ref_of |> Array.of_list
      | Config.Sparse { k; seed } -> sparse_strong_parents t ~k ~seed r
  in
  mark_covered t (Array.to_list strong_edges);
  (* Weak edges: everything delivered that my causal history still misses
     (older than the strong-edge round), so total ordering reaches it.
     Sparse mode caps the batch per proposal; the leftover stays uncovered
     and drains oldest-first over later rounds. *)
  let weak_cap = Config.sparse_weak_cap policy in
  let weak_edges =
    Round_rows.fold
      (fun (v : Vertex.t) acc -> if v.round < r - 1 then v :: acc else acc)
      t.uncovered []
    |> List.sort (fun (a : Vertex.t) b ->
           Vertex.Id.compare (a.round, a.source) (b.round, b.source))
    |> (fun l ->
         if List.compare_length_with l weak_cap <= 0 then l
         else List.filteri (fun i _ -> i < weak_cap) l)
    |> List.map Vertex.ref_of
    |> Array.of_list
  in
  mark_covered t (Array.to_list weak_edges);
  let prev_leader_edge =
    r > 0
    && Array.exists
         (fun (e : Vertex.vref) -> e.source = leader_of t (r - 1))
         strong_edges
  in
  (* Proposing without the leader edge IS the decision not to vote for
     the previous leader: this is the only point where the no-vote share
     may be sent (see [on_round_timeout]). The missing edge is justified by
     the no-vote certificate (as the round's leader) or the timeout
     certificate (everybody else). *)
  let unjustified = r > 0 && not prev_leader_edge in
  let leader = t.me = leader_of t r in
  if unjustified && not leader then send_no_vote t ~round:(r - 1) ~dst:(leader_of t r);
  let prev = round_of t (r - 1) in
  let nvc = if unjustified && leader then prev.no_vote.cert else None in
  let tc = if unjustified && not leader then prev.timeout.cert else None in
  let block =
    if Config.is_block_proposer t.config t.me then begin
      let b = t.make_block ~round:r in
      if b.proposer <> t.me || b.round <> r then
        invalid_arg "Sailfish: make_block returned another slot's block";
      Some b
    end
    else None
  in
  let block_digest = Option.fold ~none:Digest32.zero ~some:Block.digest block in
  let vertex =
    Vertex.make ~round:r ~source:t.me ~block_digest ~strong_edges ~weak_edges
      ~compact:(policy <> Config.Dense) ?nvc ?tc ()
  in
  let signature =
    Keychain.sign t.keychain ~signer:t.me (Msg.val_signing_string vertex)
  in
  Log.debug (fun m ->
      m "node %d proposes r%d (%d strong, %d weak)" t.me r
        (Array.length strong_edges) (Array.length weak_edges));
  Net.broadcast_split t.net ~src:t.me
    ~member:(Config.in_payload_clan t.config ~proposer:t.me)
    (Msg.Val { vertex; block; signature })
    (Msg.Val { vertex; block = None; signature });
  Prof.leave sec_propose

and arm_timer t =
  t.timer_epoch <- t.timer_epoch + 1;
  let epoch = t.timer_epoch in
  let r = t.round in
  Engine.schedule_after t.engine t.params.round_timeout (fun () ->
      if t.timer_epoch = epoch && t.round = r then on_round_timeout t r)

and on_round_timeout t r =
  let rs = round_state t r in
  if (not t.halted) && not rs.timeout_sent then begin
    rs.timeout_sent <- true;
    let signature =
      Keychain.sign t.keychain ~signer:t.me (Cert.signing_string Cert.Timeout r)
    in
    Net.broadcast t.net ~src:t.me
      (Msg.Timeout_share { round = r; signer = t.me; signature });
    (* A no-vote for round r is a promise not to vote for its leader, and
       the vote is the strong edge in our round r+1 vertex — so the
       promise can only be made where the vote decision is made, in
       [propose]. Sending it here and then voting anyway once the
       leader's late vertex arrived handed 2f+1 votes AND a no-vote
       certificate to disjoint observers, splitting the commit order (a
       schedule-checker find — EXPERIMENTS.md). The one exception is the
       next leader's own share: it never leaves the node (the aggregate
       is embedded only if it does propose leaderlessly), so minting it
       early is safe and keeps the no-vote quorum reachable when the
       round-r leader is down. *)
    if
      t.me = leader_of t (r + 1)
      && not (Store.mem t.store ~round:r ~source:(leader_of t r))
    then send_no_vote t ~round:r ~dst:t.me
  end

and send_no_vote t ~round ~dst =
  let signature =
    Keychain.sign t.keychain ~signer:t.me (Cert.signing_string Cert.No_vote round)
  in
  Net.send t.net ~src:t.me ~dst (Msg.No_vote_share { round; signer = t.me; signature })

(* A verified share; the quorum-th distinct one forms the certificate.
   No-vote shares are collected only as the next round's leader. *)
and on_share t kind ~round ~signer signature =
  if
    (kind = Cert.Timeout || t.me = leader_of t (round + 1))
    && Keychain.verify t.keychain ~signer (Cert.signing_string kind round) signature
  then begin
    let cs = cert_state (round_state t round) kind in
    let box =
      match cs.shares with
      | Some b -> b
      | None ->
          let n = Config.n t.config in
          let b = { signers = Bitset.create n; acc = Keychain.accumulator () } in
          cs.shares <- Some b;
          b
    in
    if Bitset.add box.signers signer then begin
      Keychain.accumulate box.acc signature;
      if Bitset.cardinal box.signers = quorum t && Option.is_none cs.cert then begin
        let agg = Keychain.to_aggregate box.acc ~signers:(Bitset.copy box.signers) in
        let c = Cert.of_aggregate kind ~round ~agg in
        cs.cert <- Some c;
        match kind with
        | Cert.Timeout ->
            Net.broadcast t.net ~src:t.me (Msg.Timeout_cert c);
            maybe_advance t
        | Cert.No_vote -> maybe_propose t
      end
    end
  end

and on_timeout_cert t (c : Cert.t) =
  if
    c.kind = Cert.Timeout
    && Option.is_none (round_of t c.round).timeout.cert
    && Cert.verify t.keychain ~quorum:(quorum t) c
  then begin
    (round_state t c.round).timeout.cert <- Some c;
    maybe_advance t
  end

let start t =
  t.started <- true;
  arm_timer t;
  maybe_propose t

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let halt t = t.halted <- true
let recovering t = t.syncing
let snapshot_joined t = t.snapshot_joined

let note_proposed t ~round =
  if round + 1 > t.min_propose_round then t.min_propose_round <- round + 1

(* A journalled block was stored before the crash: [on_block] does not
   fire for it again. *)
let replay_block t (b : Block.t) =
  let slot = (Rbc.get t.rbc ~sender:b.proposer ~round:b.round).ext in
  if not (has slot stored) then begin
    slot.block <- Some b;
    set slot stored
  end

let replay_vertex t (v : Vertex.t) =
  if
    v.round >= Store.floor t.store
    && not (Store.mem t.store ~round:v.round ~source:v.source)
  then begin
    let inst = Rbc.get t.rbc ~sender:v.source ~round:v.round in
    (* The vertex was journalled after RBC delivery, so its digest was
       certified and our echo (if any) is long sent: restore the instance
       in its terminal state so nothing is re-broadcast during replay. *)
    inst.ext.vertex <- Some v;
    Rbc.restore inst v.digest;
    register_vote t v;
    try_insert t v
  end

let start_recovery t =
  t.started <- true;
  t.syncing <- true;
  t.recovery_started_at <- Engine.now t.engine;
  let frontier = Store.highest_round t.store in
  if frontier > t.sync_target then t.sync_target <- frontier;
  trace_recovery t ~stage:"sync_start" ~round:frontier;
  Log.debug (fun m -> m "node %d starts state sync from r%d" t.me frontier);
  sync_tick t ~cursor:(t.me + 1) ~cycles:0 ~last_frontier:(-1);
  maybe_advance t

let vertex_of t ~round ~source = Store.find t.store ~round ~source
let rbc_footprint t = Rbc.footprint t.rbc
let rbc_instances t = Rbc.fold (fun i acc -> (i, i.ext.vertex) :: acc) t.rbc []

(* Census roots, in charging order: the data tables only, so no root
   reaches a closure, the engine or the network. *)
let heap_roots ts =
  let row name roots = (name, List.concat_map roots ts) in
  [
    row "consensus.blocks" (fun t ->
        Rbc.fold
          (fun i acc ->
            match i.ext with
            | { block = Some b; _ } as slot when has slot stored -> Obj.repr b :: acc
            | _ -> acc)
          t.rbc []);
    row "dag.store" (fun t -> [ Obj.repr t.store ]);
    row "consensus.rbc" (fun t -> [ Rbc.heap_root t.rbc ]);
    row "consensus.state" (fun t ->
        [
          Obj.repr t.pending; Obj.repr t.waiters; Obj.repr t.rounds; Obj.repr t.ordered;
          Obj.repr t.covered; Obj.repr t.uncovered; Obj.repr t.cert_arrivals;
        ]);
  ]

(* The merged instance's hooks (§5): ECHO covers the vertex digest and the
   clan is the proposer's payload clan. Under sparse edges [source]'s
   certificate relayers are the f+1 nodes source, ..., source+f (mod n):
   one of them is honest, and echoes are n-wide broadcasts, so every honest
   relayer reaches the threshold whenever any honest party does and one
   honest broadcast delivers the slot everywhere — the other n-f-1
   certificate broadcasts (the second n³ term of per-round volume)
   disappear. Dense mode keeps the paper's broadcast-by-everyone (and its
   pinned message flow), as does sparse with k >= n, which is defined to
   degenerate to dense exactly (the equivalence tests rely on this). *)
let rbc_context ~me config =
  let n = Config.n config in
  let f = (n - 1) / 3 in
  {
    Rbc.fresh =
      (fun () ->
        { vertex = None; block = None; flags = 0 });
    signing =
      (fun ~sender ~round digest -> Msg.echo_signing_string ~round ~source:sender digest);
    in_clan = (fun ~sender i -> Config.in_payload_clan config ~proposer:sender i);
    clan_threshold = (fun ~sender -> Config.clan_echo_threshold config ~proposer:sender);
    relays_cert =
      (match Config.edge_policy config with
      | Config.Sparse { k; _ } when k < n -> fun ~sender -> (me - sender + n) mod n <= f
      | Config.Dense | Config.Sparse _ -> fun ~sender:_ -> true);
    keep_certs = false;
    echo =
      (fun ~sender ~round vertex_digest ~signer signature ->
        let signature = Option.get signature in
        Msg.Echo { round; source = sender; vertex_digest; signer; signature });
    ready = (fun ~sender:_ ~round:_ _ ~signer:_ -> invalid_arg "Sailfish: no READY");
    echo_cert =
      (fun ~sender ~round vertex_digest agg ~clan_echoes ->
        Msg.Echo_cert { round; source = sender; vertex_digest; agg; clan_echoes });
  }

let create ~me ~config ~keychain ~engine ~net ?(params = default_params)
    ?(obs = Obs.disabled) ~make_block ~on_commit ?(on_block = fun _ -> ())
    ?(on_deliver = fun _ -> ()) ?(on_propose = fun ~round:_ -> ()) () =
  let node_label = [ ("node", string_of_int me) ] in
  let obsh =
    {
      o_trace = obs.Obs.trace;
      o_pull_retries =
        Metrics.counter obs.Obs.metrics ~labels:node_label "sailfish_pull_retries";
      o_inserted =
        Metrics.counter obs.Obs.metrics ~labels:node_label "dag_vertices_inserted";
      o_committed =
        Metrics.counter obs.Obs.metrics ~labels:node_label "dag_vertices_committed";
      o_sync_rounds =
        Metrics.counter obs.Obs.metrics ~labels:node_label "recovery_rounds_fetched";
      o_recovery_wall =
        Metrics.gauge obs.Obs.metrics ~labels:node_label "recovery_wall_ms";
    }
  in
  let t =
    {
      me;
      config;
      keychain;
      engine;
      net;
      params;
      obsh;
      store = Store.create ~n:(Config.n config);
      make_block;
      on_commit;
      on_block;
      rbc =
        Rbc.create ~me ~n:(Config.n config) ~f:(Config.f config) ~signed:true
          ~engine ~net ~keychain ~retry:sync_retry ~budget:pull_budget ~trace:obsh.o_trace
          ~pull_retries:obsh.o_pull_retries (rbc_context ~me config);
      pending = Hashtbl.create 16;
      waiters = Hashtbl.create 16;
      rounds = Hashtbl.create 64;
      round = 0;
      proposed = false;
      started = false;
      timer_epoch = 0;
      halted = false;
      syncing = false;
      sync_target = -1;
      sync_replies = 0;
      min_propose_round = 0;
      snapshot_joined = false;
      recovery_started_at = Time.zero;
      on_deliver;
      on_propose;
      last_committed = -1;
      ordered = Round_rows.create ~n:(Config.n config);
      ordered_total = 0;
      covered = Round_rows.create ~n:(Config.n config);
      uncovered = Round_rows.create ~n:(Config.n config);
      cert_arrivals = Round_rows.create ~n:(Config.n config);
    }
  in
  Net.set_handler net me
    ~settled:(fun ~src ~arrival msg -> settled t ~src ~arrival msg)
    (fun ~src msg -> handle t ~src msg);
  t
