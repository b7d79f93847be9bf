open Clanbft
open Clanbft.Sim
open Clanbft.Crypto

(* ------------------------------------------------------------------ *)
(* Harness *)

(* Each proposal is [load] fresh 256-byte transactions, numbered from 1
   across the world. *)
let closed_loop engine ~load =
  let next = ref 0 in
  fun me ~round ->
    let id = !next + 1 in
    next := !next + load;
    Block.of_run ~proposer:me ~round ~id ~count:load ~client:me ~created_at:(Engine.now engine)
      ~size:256

let make_world ?(n = 7) ?(one_way_ms = 10.) ?(net_config = { Net.default_config with jitter = 0.0 })
    ?(byzantine = []) ?(load = 5) ?params dissemination =
  let engine = Engine.create () in
  Smr_world.create ~engine ~topology:(Topology.uniform ~n ~one_way_ms) ~net:net_config ~seed:3L
    ?params ~absent:byzantine ~generate:(closed_loop engine ~load)
    (Config.make ~n dissemination)

let start = Smr_world.start
let node w i = Node.consensus (Smr_world.node w i)

let honest_sequences (w : Smr_world.t) =
  List.filter_map
    (fun i -> Option.map (fun _ -> Smr_world.Ledger.sequence w.ledger i) w.nodes.(i))
    (List.init (Array.length w.nodes) Fun.id)

(* Every honest commit sequence must follow the world's one canonical
   order. *)
let check_prefix_agreement w =
  Option.iter (fun d -> Alcotest.fail (Smr_world.describe d)) (Smr_world.divergence w);
  honest_sequences w

let min_committed w =
  List.fold_left (fun acc s -> min acc (Array.length s)) max_int (honest_sequences w)

(* A round-0 proposal of (Byzantine) node 0 carrying [count] transactions
   numbered from [first_id], signed with node 0's key. *)
let forge_proposal (w : Smr_world.t) ~first_id ~count =
  let block =
    Block.of_run ~proposer:0 ~round:0 ~id:first_id ~count ~client:0 ~created_at:0
      ~size:Transaction.default_size
  in
  let vertex =
    Vertex.make ~round:0 ~source:0 ~block_digest:(Block.digest block) ~strong_edges:[||]
      ~weak_edges:[||] ()
  in
  (vertex, block, Keychain.sign w.keychain ~signer:0 (Msg.val_signing_string vertex))

(* ------------------------------------------------------------------ *)
(* Happy-path liveness + agreement, all three modes *)

let test_liveness mode () =
  let w = make_world mode in
  start w;
  Engine.run ~until:(Time.s 5.) w.engine;
  let seqs = check_prefix_agreement w in
  Alcotest.(check bool) "many rounds" true (Sailfish.current_round (node w 0) > 20);
  Alcotest.(check bool) "all committed plenty" true (min_committed w > 50);
  Alcotest.(check int) "7 honest sequences" 7 (List.length seqs)

let test_commits_cover_all_proposers () =
  let w = make_world Config.Full in
  start w;
  Engine.run ~until:(Time.s 5.) w.engine;
  let seq = List.hd (honest_sequences w) in
  let sources = Array.to_list seq |> List.map snd |> List.sort_uniq compare in
  Alcotest.(check (list int)) "every proposer appears" [ 0; 1; 2; 3; 4; 5; 6 ] sources

let test_single_clan_block_locality () =
  let clan = [| 0; 2; 4; 6 |] in
  let w = make_world (Config.Single_clan clan) in
  start w;
  Engine.run ~until:(Time.s 3.) w.engine;
  (* Clan members hold blocks of clan proposers; outsiders hold none.
     Query a recent round: old rounds are garbage-collected. *)
  let some_block_round = Sailfish.last_committed_round (node w 2) - 2 in
  Alcotest.(check bool) "committed enough" true (some_block_round > 0);
  Array.iter
    (fun proposer ->
      (match Sailfish.block_of (node w 1) ~round:some_block_round ~source:proposer with
      | Some _ -> Alcotest.failf "outsider 1 stored a block of %d" proposer
      | None -> ());
      match Sailfish.block_of (node w 2) ~round:some_block_round ~source:proposer with
      | Some _ -> ()
      | None -> Alcotest.failf "clan member 2 missing block of %d" proposer)
    clan;
  (* Non-clan proposers produce vertex-only slots: nobody stores blocks. *)
  Alcotest.(check bool) "no block for vertex-only proposer" true
    (Sailfish.block_of (node w 2) ~round:some_block_round ~source:1 = None)

let test_multi_clan_block_locality () =
  let clans = [| [| 0; 1; 2; 3 |]; [| 4; 5; 6 |] |] in
  let w = make_world (Config.Multi_clan clans) in
  start w;
  Engine.run ~until:(Time.s 3.) w.engine;
  (* Node 0 (clan 0) stores clan-0 blocks but not clan-1 blocks. Query a
     recent (non-GCed) round. *)
  let r = Sailfish.last_committed_round (node w 0) - 2 in
  Alcotest.(check bool) "committed enough" true (r > 0);
  Alcotest.(check bool) "own clan block" true
    (Sailfish.block_of (node w 0) ~round:r ~source:1 <> None);
  Alcotest.(check bool) "other clan block absent" true
    (Sailfish.block_of (node w 0) ~round:r ~source:5 = None);
  Alcotest.(check bool) "clan 1 stores its own" true
    (Sailfish.block_of (node w 5) ~round:r ~source:5 <> None);
  ignore (check_prefix_agreement w)

(* ------------------------------------------------------------------ *)
(* Faults *)

let test_crash_faults mode () =
  (* f = 2 of 7 crashed from the start; progress and agreement continue,
     including across rounds whose leader is crashed (timeout + NVC path). *)
  let params = { Sailfish.default_params with round_timeout = Time.ms 200. } in
  let w = make_world ~byzantine:[ 1; 3 ] ~params mode in
  start w;
  Engine.run ~until:(Time.s 10.) w.engine;
  ignore (check_prefix_agreement w);
  (* Rounds 1 and 3 (mod 7) have crashed leaders: the protocol must have
     advanced far past several of them. *)
  Alcotest.(check bool) "rounds advance past crashed leaders" true
    (Sailfish.current_round (node w 0) > 14);
  Alcotest.(check bool) "commits continue" true (min_committed w > 10)

let test_crashed_leader_vertices_skipped () =
  let params = { Sailfish.default_params with round_timeout = Time.ms 200. } in
  let w = make_world ~byzantine:[ 1 ] ~params Config.Full in
  start w;
  Engine.run ~until:(Time.s 8.) w.engine;
  let seq = List.hd (honest_sequences w) in
  Alcotest.(check bool) "crashed node proposes nothing" true
    (Array.for_all (fun (_, source) -> source <> 1) seq)

let test_equivocating_proposer () =
  (* Byzantine node 0 proposes two conflicting round-0 vertices, each with
     its own block, split across the honest parties. Safety: the slot can
     certify at most one digest; liveness: everyone else keeps going. *)
  let params = { Sailfish.default_params with round_timeout = Time.ms 200. } in
  let w = make_world ~byzantine:[ 0 ] ~params Config.Full in
  let mk_proposal tag =
    let vertex, block, signature = forge_proposal w ~first_id:(1000 + (100 * tag)) ~count:3 in
    Msg.Val { vertex; block = Some block; signature }
  in
  let v1 = mk_proposal 1 and v2 = mk_proposal 2 in
  start w;
  for dst = 1 to 6 do
    Net.send w.net ~src:0 ~dst (if dst <= 3 then v1 else v2)
  done;
  Engine.run ~until:(Time.s 10.) w.engine;
  ignore (check_prefix_agreement w);
  (* At most one version can be in any honest DAG, and all honest DAGs
     that contain the slot agree on it. *)
  let digests =
    List.filter_map
      (fun i ->
        match Sailfish.vertex_of (node w i) ~round:0 ~source:0 with
        | Some v -> Some (Digest32.to_hex v.Vertex.digest)
        | None -> None)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check bool) "one certified version at most" true
    (List.length (List.sort_uniq compare digests) <= 1);
  Alcotest.(check bool) "liveness unaffected" true (min_committed w > 30)

let test_partial_synchrony_recovery () =
  (* Heavy adversarial delays before GST at 2 s; the protocol must catch up
     and commit normally afterwards. *)
  let net_config =
    { Net.default_config with jitter = 0.0; gst = Time.s 2.;
      pre_gst_max_extra = Time.ms 400. }
  in
  let params = { Sailfish.default_params with round_timeout = Time.ms 300. } in
  let w = make_world ~net_config ~params Config.Full in
  start w;
  Engine.run ~until:(Time.s 2.) w.engine;
  let at_gst = min_committed w in
  Engine.run ~until:(Time.s 7.) w.engine;
  ignore (check_prefix_agreement w);
  Alcotest.(check bool) "progress after GST" true (min_committed w > at_gst + 30)

let test_byzantine_partial_block_dissemination () =
  (* A Byzantine clan proposer sends its block to only fc+1 clan members;
     the rest of the clan must pull it and still execute/commit. *)
  let clan = [| 0; 2; 4; 6 |] in
  (* gc_depth large enough that round 0 survives the whole run *)
  let params = { Sailfish.round_timeout = Time.ms 200.; gc_depth = 1_000_000 } in
  let w = make_world ~byzantine:[ 0 ] ~params (Config.Single_clan clan) in
  let vertex, block, signature = forge_proposal w ~first_id:2000 ~count:3 in
  start w;
  (* Block to clan members 2 and 4 (fc+1 = 2); bare vertex to the rest. *)
  for dst = 1 to 6 do
    let with_block = dst = 2 || dst = 4 in
    Net.send w.net ~src:0 ~dst
      (Msg.Val { vertex; block = (if with_block then Some block else None); signature })
  done;
  Engine.run ~until:(Time.s 10.) w.engine;
  ignore (check_prefix_agreement w);
  (* Clan member 6 never got the block directly — it must have pulled it. *)
  match Sailfish.block_of (node w 6) ~round:0 ~source:0 with
  | Some b ->
      Alcotest.(check bool) "pulled block matches digest" true
        (Digest32.equal (Block.digest b) (Block.digest block))
  | None -> Alcotest.fail "clan member 6 never obtained the Byzantine proposer's block"

let test_unsolicited_block_reply () =
  (* Byzantine node 0 shows node 1 a round-0 vertex A without its block and
     then, unasked, A's block in a Block_reply; nodes 2-6 get a conflicting
     vertex B with its block, and B certifies. Node 1 must drop A's block
     with A, fetch B, and store and execute B's block like everyone else. *)
  let params = { Sailfish.round_timeout = Time.ms 200.; gc_depth = 1_000_000 } in
  let w = make_world ~byzantine:[ 0 ] ~params Config.Full in
  let va, ba, sa = forge_proposal w ~first_id:3000 ~count:3 in
  let vb, bb, sb = forge_proposal w ~first_id:4000 ~count:3 in
  start w;
  Net.send w.net ~src:0 ~dst:1 (Msg.Val { vertex = va; block = None; signature = sa });
  Net.send w.net ~src:0 ~dst:1 (Msg.Block_reply { block = ba });
  for dst = 2 to 6 do
    Net.send w.net ~src:0 ~dst (Msg.Val { vertex = vb; block = Some bb; signature = sb })
  done;
  Engine.run ~until:(Time.s 3.) w.engine;
  ignore (check_prefix_agreement w);
  let hex = Digest32.to_hex and n1 = node w 1 in
  Alcotest.(check (option string))
    "B certified" (Some (hex vb.Vertex.digest))
    (Option.map (fun (v : Vertex.t) -> hex v.digest) (Sailfish.vertex_of n1 ~round:0 ~source:0));
  Alcotest.(check (option string))
    "node 1 stores the certified vertex's block" (Some (hex vb.block_digest))
    (Option.map (fun b -> hex (Block.digest b)) (Sailfish.block_of n1 ~round:0 ~source:0));
  let state i = hex (Execution.state_digest (Node.execution (Smr_world.node w i))) in
  Alcotest.(check string) "node 1 executes what node 2 does" (state 2) (state 1)

let test_ancient_round_traffic_ignored () =
  (* After garbage collection, replayed messages for pruned rounds must be
     dropped (not crash the node or regrow state). gc_depth is small so the
     floor rises quickly. *)
  let params = { Sailfish.default_params with gc_depth = 4 } in
  let w = make_world ~params Config.Full in
  start w;
  Engine.run ~until:(Time.s 2.) w.engine;
  Alcotest.(check bool) "gc active" true (Sailfish.last_committed_round (node w 1) > 10);
  (* Replay an ancient proposal, echo, and block request from "node 0". *)
  let vertex, block, signature = forge_proposal w ~first_id:9000 ~count:2 in
  for dst = 1 to 6 do
    Net.send w.net ~src:0 ~dst (Msg.Val { vertex; block = Some block; signature });
    Net.send w.net ~src:0 ~dst (Msg.Block_request { round = 0; source = 1 });
    Net.send w.net ~src:0 ~dst
      (Msg.Echo
         {
           round = 0;
           source = 0;
           vertex_digest = vertex.Vertex.digest;
           signer = 0;
           signature =
             Keychain.sign w.keychain ~signer:0
               (Msg.echo_signing_string ~round:0 ~source:0 vertex.Vertex.digest);
         })
  done;
  Engine.run ~until:(Time.s 4.) w.engine;
  ignore (check_prefix_agreement w);
  Alcotest.(check bool) "still live after replay" true
    (Sailfish.current_round (node w 1) > 30)

let test_gc_bounds_memory () =
  let params = { Sailfish.default_params with gc_depth = 8 } in
  let w = make_world ~params Config.Full in
  start w;
  Engine.run ~until:(Time.s 4.) w.engine;
  (* DAG holds at most gc_depth + pipeline-slack rounds x 7 vertices. *)
  Alcotest.(check bool)
    (Printf.sprintf "dag size bounded (%d)" (Sailfish.dag_size (node w 0)))
    true
    (Sailfish.dag_size (node w 0) < 7 * (8 + 16));
  Alcotest.(check bool) "but many rounds ran" true
    (Sailfish.current_round (node w 0) > 100)

let test_single_clan_traffic_asymmetry () =
  (* Outsiders receive vertices but never payloads: their ingress must be
     well below a clan member's. *)
  let clan = [| 0; 2; 4; 6 |] in
  let w = make_world ~load:200 (Config.Single_clan clan) in
  start w;
  Engine.run ~until:(Time.s 3.) w.engine;
  let outsider = Net.bytes_received w.net 1 in
  let member = Net.bytes_received w.net 2 in
  Alcotest.(check bool)
    (Printf.sprintf "outsider %d < half of member %d" outsider member)
    true
    (outsider * 2 < member)

(* ------------------------------------------------------------------ *)
(* Latency sanity: leader commits land near 3δ (paper §5/§7) *)

let test_commit_latency_3delta () =
  (* Uniform 50 ms one-way; tiny payloads so bandwidth is irrelevant. The
     leader-vertex commit path is 1 RBC (2δ) + δ = 3δ = 300 ms; allow
     generous slack for queuing and loopback. *)
  let delta = 50. in
  let w = make_world ~one_way_ms:delta ~load:1 Config.Full in
  start w;
  Engine.run ~until:(Time.s 6.) w.engine;
  let rounds = Sailfish.current_round (node w 0) in
  (* A round advances after the leader's RBC completes (~2δ) and commits at
     3δ; the steady-state round rate is therefore ~1 per 2δ = 100 ms. In
     6 s that is ~60 rounds; require at least half that and no more than
     double. *)
  Alcotest.(check bool)
    (Printf.sprintf "round rate plausible (%d rounds)" rounds)
    true
    (rounds > 25 && rounds < 130)

let test_round_rate_matches_rbc_depth () =
  (* With one-way delay δ, one round needs at least 2δ (VAL + ECHO). *)
  let w = make_world ~one_way_ms:20. ~load:1 Config.Full in
  start w;
  Engine.run ~until:(Time.s 2.) w.engine;
  let rounds = Sailfish.current_round (node w 0) in
  Alcotest.(check bool)
    (Printf.sprintf "%d rounds in 2s at 40ms floor" rounds)
    true
    (rounds <= 50 && rounds >= 20)

(* ------------------------------------------------------------------ *)
(* Determinism *)

let test_deterministic_runs () =
  let run () =
    let w = make_world Config.Full in
    start w;
    Engine.run ~until:(Time.s 3.) w.engine;
    honest_sequences w
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical commit sequences" true (a = b)

(* ------------------------------------------------------------------ *)
(* Latency model (§1 / §8) *)

let test_latency_model_table () =
  let open Latency_model in
  Alcotest.(check int) "sailfish 3d" 3 (deltas Dag_sailfish);
  Alcotest.(check int) "bullshark 4d" 4 (deltas Dag_bullshark);
  Alcotest.(check int) "strawman 6d" 6 (deltas Strawman_poa);
  Alcotest.(check int) "arete 8d" 8 (deltas Arete);
  Alcotest.(check (float 1e-9)) "estimate" 300.0 (estimate_ms ~delta_ms:100.0 Dag_sailfish);
  (* The architectural claim of the paper: the DAG path beats every
     PoA-then-order design. *)
  List.iter
    (fun d ->
      if d <> Dag_sailfish && d <> Dag_sailfish_nonleader then
        Alcotest.(check bool) (name d) true (deltas Dag_sailfish < deltas d))
    all

(* Forged or unsolicited broadcast traffic must not allocate instance
   state: echoes and certificates that fail verification, and pull
   requests for far-future rounds, leave the victim's instance and digest
   tables empty (the nodes are not started, so nothing else runs). *)
let test_forged_traffic_allocates_nothing () =
  let w = make_world ~n:4 ~byzantine:[ 3 ] (Config.Single_clan [| 0; 1; 2 |]) in
  let signers = Util.Bitset.of_list 4 [ 0; 1; 3 ] in
  let agg = Keychain.aggregate_of_wire ~tag:(String.make 32 'x') ~signers in
  let send m = Net.send w.net ~src:3 ~dst:0 m in
  for i = 1 to 200 do
    let vertex_digest = Digest32.hash_string (string_of_int i) in
    send
      (Msg.Echo
         { round = 1; source = 1; vertex_digest; signer = 3; signature = Keychain.forge });
    send (Msg.Echo_cert { round = 1; source = 1; vertex_digest; agg; clan_echoes = 2 });
    send (Msg.Vertex_request { round = 1_000_000 + i; source = 1 });
    send (Msg.Block_request { round = 1_000_000 + i; source = 1 })
  done;
  Engine.run w.engine;
  Alcotest.(check (pair int int)) "instances, digests" (0, 0)
    (Sailfish.rbc_footprint (node w 0))

(* Echo and timeout certificates are cut from running XORs, not from held
   shares. With one node silent, rounds it leads time out, so both kinds
   form; each carries a quorum of signers, each of whom put a valid share
   on the wire, and its tag equals [Keychain.aggregate] over exactly those
   shares. *)
let test_certificates_match_share_aggregate () =
  let w = make_world ~n:4 ~byzantine:[ 3 ] Config.Full in
  let echoes = Hashtbl.create 256 and timeouts = Hashtbl.create 16 in
  let echo_certs = ref [] and timeout_certs = ref [] in
  Net.set_filter w.net (fun ~src:_ ~dst:_ m ->
      (match m with
      | Msg.Echo { round; source; vertex_digest; signer; signature } ->
          Hashtbl.replace echoes (round, source, vertex_digest, signer) signature
      | Msg.Echo_cert { round; source; vertex_digest; agg; _ } ->
          echo_certs := ((round, source, vertex_digest), agg) :: !echo_certs
      | Msg.Timeout_share { round; signer; signature } ->
          Hashtbl.replace timeouts (round, signer) signature
      | Msg.Timeout_cert c -> timeout_certs := c :: !timeout_certs
      | _ -> ());
      true);
  start w;
  Engine.run ~until:(Time.s 8.) w.engine;
  let check_cert agg share =
    let signers = Keychain.signers agg in
    Alcotest.(check bool) "quorum of signers" true (Util.Bitset.cardinal signers >= 3);
    let parts = List.map (fun i -> (i, share i)) (Util.Bitset.to_list signers) in
    let expect = Option.get (Keychain.aggregate w.keychain parts) in
    Alcotest.(check string) "tag" (Keychain.aggregate_tag expect) (Keychain.aggregate_tag agg)
  in
  Alcotest.(check bool) "echo certificates" true (List.length !echo_certs > 0);
  Alcotest.(check bool) "timeout certificates" true (List.length !timeout_certs > 0);
  List.iter
    (fun ((round, source, digest), agg) ->
      check_cert agg (fun i -> Hashtbl.find echoes (round, source, digest, i)))
    !echo_certs;
  List.iter
    (fun (c : Cert.t) ->
      check_cert c.agg (fun i -> Hashtbl.find timeouts (c.round, i));
      Alcotest.(check bool) "timeout certificate verifies" true
        (Cert.verify w.keychain ~quorum:3 c))
    !timeout_certs

(* The instance and DAG rows hold exactly what the keyed tables held:
   per-replica (instances, digests) and DAG sizes after a 4 s run at
   n = 16 with one replica absent and a GC depth of 4, so rounds are
   pruned all along, pinned from the table-based implementation. *)
let test_footprint_pinned () =
  let n = 16 in
  let engine = Engine.create () in
  let w =
    Smr_world.create ~engine ~topology:(Topology.gcp_table1 ~n) ~net:Net.default_config
      ~seed:1L ~params:{ Sailfish.default_params with gc_depth = 4 } ~absent:[ 9 ]
      ~generate:(closed_loop engine ~load:20) (Config.make ~n Config.Full)
  in
  start w;
  Engine.run ~until:(Time.s 4.) engine;
  let expect = [| 90; 93; 90; 87; 87; 90; 93; 90; 87; 0; 90; 93; 90; 87; 87; 90 |] in
  let dag = [| 83; 87; 83; 84; 85; 83; 87; 83; 84; 0; 83; 87; 83; 84; 85; 83 |] in
  List.iter
    (fun i ->
      let c = node w i in
      Alcotest.(check (pair int int)) (Printf.sprintf "node %d footprint" i)
        (expect.(i), expect.(i)) (Sailfish.rbc_footprint c);
      Alcotest.(check int) (Printf.sprintf "node %d dag" i) dag.(i) (Sailfish.dag_size c);
      Alcotest.(check int) (Printf.sprintf "node %d commits" i) 177 (Sailfish.committed_count c))
    (List.filter (fun i -> i <> 9) (List.init n Fun.id))

(* An instance drops its echo tally once nothing can read it: it is
   delivered, formed this node's own certificate (later echoes are
   skipped unread) and holds the certified vertex ([fetch_vertex] reads
   the echo voters while it is missing). *)
module Core = Clanbft_rbc.Rbc_core

let settled (i, vertex) = Core.is_delivered i && Core.sent_cert i && Option.is_some vertex

(* At n = 16 on the GCP table, with 20 transactions per proposal. *)
let tally_world ?adversaries ?(seed = 1L) dissemination =
  let engine = Engine.create () in
  Smr_world.create ~engine ~topology:(Topology.gcp_table1 ~n:16) ~net:Net.default_config
    ~seed ?adversaries ~generate:(closed_loop engine ~load:20) (Config.make ~n:16 dissemination)

(* Every half second for 4 s, at every node: no settled instance holds a
   tally, tallies held never outnumber the open instances, and every
   instance two rounds behind the node is settled, so a node that
   delivered through a received certificate went on to form its own.
   Returns whether some node held a second digest's votes at a
   checkpoint. *)
let check_tallies (w : Smr_world.t) =
  let second_digest = ref false and settled_seen = ref 0 in
  for step = 1 to 8 do
    Engine.run ~until:(Time.ms (500. *. float_of_int step)) w.engine;
    Array.iteri
      (fun me -> function
        | None -> ()
        | Some n ->
            let c = Node.consensus n in
            let insts = Sailfish.rbc_instances c in
            let count p = List.length (List.filter p insts) in
            let behind = Sailfish.current_round c - 1 in
            List.iter
              (fun ((i, _) as x) ->
                if settled x && Core.holds_tally i then
                  Alcotest.failf "node %d: settled instance (%d, %d) holds a tally" me
                    i.Core.round i.Core.sender;
                if i.Core.round < behind && not (settled x) then
                  Alcotest.failf "node %d in round %d: instance (%d, %d) is open" me
                    (behind + 1) i.Core.round i.Core.sender)
              insts;
            let held = count (fun (i, _) -> Core.holds_tally i) in
            let open_ = count (fun x -> not (settled x)) in
            if held > open_ then
              Alcotest.failf "node %d: %d tallies held, %d instances open" me held open_;
            settled_seen := !settled_seen + count settled;
            let insts, digests = Sailfish.rbc_footprint c in
            if digests > insts then second_digest := true)
      w.nodes
  done;
  Alcotest.(check bool) "instances settled" true (!settled_seen > 0);
  !second_digest

let test_settled_drop_tally () =
  let w = tally_world Config.Full in
  start w;
  ignore (check_tallies w : bool);
  let w =
    tally_world
      ~adversaries:[ { Strategy.node = 3; kind = Strategy.Equivocate } ]
      (Config.Single_clan (Array.init 11 Fun.id))
  in
  start w;
  Alcotest.(check bool) "an equivocator's second digest was tallied" true (check_tallies w)

(* A stored block is its header, its digest and one packed run of its 20
   consecutive transactions: at most 32 words, where one boxed record per
   transaction cost about 130. *)
let test_stored_blocks_packed () =
  let w = tally_world Config.Full in
  start w;
  Engine.run ~until:(Time.s 2.) w.engine;
  let stored = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some n ->
          let c = Node.consensus n in
          for round = 0 to Sailfish.current_round c do
            for source = 0 to 15 do
              match Sailfish.block_of c ~round ~source with
              | None -> ()
              | Some b ->
                  incr stored;
                  let words = Obj.reachable_words (Obj.repr b) in
                  if words > 32 then
                    Alcotest.failf "block (%d, %d) takes %d words" round source words
            done
          done)
    w.nodes;
  Alcotest.(check bool) "blocks were stored" true (!stored > 16 * 16)

(* Each replica's per-slot consensus bookkeeping holds only what it
   stores: ordering and coverage are bits of the RBC slot, and a row of a
   per-slot table is freed when its last slot empties. After a dense
   n = 16 run, the census rows [consensus.rbc] and [consensus.state]
   together cost at most 19 words per RBC instance held (18.08 here).
   With ordering and coverage in two n-wide tables whose rows were held
   until the GC horizon, and a [Some] cell per held vertex, they cost
   27.90. *)
let test_slot_bookkeeping_bounded () =
  let w = tally_world Config.Full in
  start w;
  Engine.run ~until:(Time.s 4.) w.engine;
  let nodes = List.filter_map (Option.map Node.consensus) (Array.to_list w.nodes) in
  let census = Prof.census (Sailfish.heap_roots nodes) in
  let words = List.assoc "consensus.rbc" census + List.assoc "consensus.state" census in
  let insts = List.fold_left (fun acc c -> acc + fst (Sailfish.rbc_footprint c)) 0 nodes in
  let per_inst = float_of_int words /. float_of_int insts in
  if per_inst > 19.0 then
    Alcotest.failf "%d words over %d instances: %.2f per instance > 19" words insts per_inst

(* A slot certified without its vertex keeps its tally: its pull
   candidates are the echo voters. Node 0 never receives a vertex of
   node 1, so it certifies node 1's slots from echoes alone. *)
let test_missing_vertex_keeps_tally () =
  let w = tally_world Config.Full in
  Net.set_filter w.net (fun ~src ~dst m ->
      dst <> 0
      ||
      match m with
      | Msg.Val _ -> src <> 1
      | Msg.Vertex_reply { vertex; _ } -> vertex.Vertex.source <> 1
      | _ -> true);
  start w;
  Engine.run ~until:(Time.s 2.) w.engine;
  let missing =
    List.filter
      (fun ((i : _ Core.inst), vertex) ->
        i.sender = 1 && Core.is_delivered i && Core.sent_cert i && vertex = None)
      (Sailfish.rbc_instances (node w 0))
  in
  Alcotest.(check bool) "slots certified without their vertex" true (missing <> []);
  List.iter
    (fun ((i : _ Core.inst), _) ->
      let voters = Core.echo_voters i (Option.get (Core.agreed i)) in
      Alcotest.(check bool)
        (Printf.sprintf "round %d keeps a quorum of echo voters" i.round)
        true
        (List.length voters >= 11))
    missing

(* ------------------------------------------------------------------ *)
(* Vertex validity is total: edge sources *)

(* The echoes seen on the wire for slot (round, source) 0, counted by a
   net filter that drops nothing. *)
let count_echoes (w : Smr_world.t) ~round =
  let echoes = ref 0 in
  Net.set_filter w.net (fun ~src:_ ~dst:_ m ->
      (match m with
      | Msg.Echo { round = r; source = 0; _ } when r = round -> incr echoes
      | _ -> ());
      true);
  echoes

(* A round-r VAL of absent node 0, signed with its key, whose strong edges
   name [sources] in round r-1 (digests taken from [holder]'s DAG where it
   has the vertex) and whose weak edges name [weak] in round r-2. *)
let forge_edges (w : Smr_world.t) ~holder ~round ~weak sources =
  let vref round source =
    match Sailfish.vertex_of (node w holder) ~round ~source with
    | Some v -> Vertex.ref_of v
    | None -> { Vertex.round; source; digest = Digest32.zero }
  in
  let block = Block.make ~proposer:0 ~round ~txns:[||] in
  let vertex =
    Vertex.make ~round ~source:0 ~block_digest:(Block.digest block)
      ~strong_edges:(Array.map (vref (round - 1)) sources)
      ~weak_edges:(Array.map (vref (round - 2)) weak)
      ()
  in
  Msg.Val
    {
      vertex;
      block = Some block;
      signature = Keychain.sign w.keychain ~signer:0 (Msg.val_signing_string vertex);
    }

(* n = 7 Full with node 0 absent. Once replica 1 holds round 13, a
   round-14 VAL of node 0 with the given strong edge sources goes to every
   honest replica; the edge to 6 is the vote for round 13's leader. *)
let inject_round14 sources =
  let params = { Sailfish.default_params with round_timeout = Time.ms 200. } in
  let w = make_world ~byzantine:[ 0 ] ~params Config.Full in
  let echoes = count_echoes w ~round:14 in
  start w;
  let held s = Sailfish.vertex_of (node w 1) ~round:13 ~source:s <> None in
  while not (held 6 && held 1) do
    Engine.run ~until:(Time.add (Engine.now w.engine) (Time.ms 10.)) w.engine
  done;
  let v = forge_edges w ~holder:1 ~round:14 ~weak:[||] sources in
  for dst = 1 to 6 do
    Net.send w.net ~src:0 ~dst v
  done;
  Engine.run ~until:(Time.add (Engine.now w.engine) (Time.s 1.)) w.engine;
  (w, !echoes)

(* The block hook answers for the caller's own slot: a block of another
   proposer or another round is refused before round 0 is proposed. *)
let test_foreign_hook_block_refused () =
  let refused what generate =
    let w =
      Smr_world.create ~topology:(Topology.uniform ~n:4 ~one_way_ms:10.) ~net:Net.default_config
        ~seed:3L ~generate (Config.make ~n:4 Config.Full)
    in
    Alcotest.check_raises what
      (Invalid_argument "Sailfish: make_block returned another slot's block") (fun () -> start w)
  in
  refused "other proposer" (fun me ~round -> Block.make ~proposer:((me + 1) mod 4) ~round ~txns:[||]);
  refused "other round" (fun me ~round -> Block.make ~proposer:me ~round:(round + 1) ~txns:[||])

let test_repeated_strong_edges_rejected () =
  let w, echoes = inject_round14 [| 6; 1; 1; 1; 1 |] in
  Alcotest.(check int) "no echo" 0 echoes;
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "node %d did not insert it" i) true
        (Sailfish.vertex_of (node w i) ~round:14 ~source:0 = None))
    [ 1; 2; 3; 4; 5; 6 ];
  ignore (check_prefix_agreement w)

let test_out_of_range_edge_rejected () =
  let w, echoes = inject_round14 [| 6; 1; 1; 1; 99 |] in
  Alcotest.(check int) "no echo" 0 echoes;
  ignore (check_prefix_agreement w)

(* A forged certificate in flight ahead of valid ones must not suppress
   them. n = 4 Full, node 3 absent; no echo for slot (0, 1) reaches
   replica 0, so it can deliver that slot only from a certificate. At
   1 µs node 3 sends replica 0 a certificate for the slot with 2f+1
   signers and a bad aggregate; it lands at 10 ms, well ahead of the
   valid ones. A receiver that let the forgery stand for the slot's
   first certificate would skip the valid copies landing after it, and
   replica 0 would get the vertex only by pulling it, once round 1
   names it as a parent. *)
let test_forged_cert_does_not_settle () =
  let w = make_world ~n:4 ~byzantine:[ 3 ] Config.Full in
  let certs = ref 0 in
  Net.set_filter w.net (fun ~src:_ ~dst m ->
      match m with
      | Msg.Echo { round = 0; source = 1; _ } -> dst <> 0
      | Msg.Echo_cert { round = 0; source = 1; _ } ->
          if dst = 0 then incr certs;
          true
      | _ -> true);
  let agg =
    Keychain.aggregate_of_wire ~tag:(String.make 32 'x')
      ~signers:(Util.Bitset.of_list 4 [ 0; 1; 2 ])
  in
  Engine.schedule_at w.engine 1 (fun () ->
      Net.send w.net ~src:3 ~dst:0
        (Msg.Echo_cert
           {
             round = 0;
             source = 1;
             vertex_digest = Digest32.hash_string "forged";
             agg;
             clan_echoes = 0;
           }));
  start w;
  let delivered () = Sailfish.vertex_of (node w 0) ~round:0 ~source:1 <> None in
  (* Probed from inside one run: a copy landing past [until] is never
     elided. *)
  let early = ref true in
  Engine.schedule_at w.engine (Time.ms 25.) (fun () -> early := delivered ());
  Engine.run ~until:(Time.ms 40.) w.engine;
  Alcotest.(check bool) "not before the valid certificates land" false !early;
  Alcotest.(check int) "the forgery and the relayers' certificates" 3 !certs;
  Alcotest.(check bool) "delivered from a valid certificate" true (delivered ());
  Engine.run ~until:(Time.s 2.) w.engine;
  ignore (check_prefix_agreement w)

(* Random edge arrays through replica 1's VAL handler (n = 4, node 0
   absent, nothing started): sources drawn from -2 .. n+2, mostly in
   range, repeats allowed, and half the strong arrays sorted and
   deduplicated so that valid vertices come up too. Nothing raises, and
   the vertex is echoed exactly when it is valid: every source in range,
   strong sources strictly ascending, at least 2f+1 of them, one of them
   round 1's leader. *)
let prop_edge_sources_total =
  let n = 4 in
  let open QCheck.Gen in
  let source = frequency [ (6, int_range 0 (n - 1)); (1, int_range (-2) (n + 2)) ] in
  let sorted a = Array.of_list (List.sort_uniq compare (Array.to_list a)) in
  let strong =
    map2 (fun sort a -> if sort then sorted a else a) bool (array_size (int_range 2 5) source)
  in
  let edges = pair strong (array_size (int_bound 3) source) in
  let print = QCheck.Print.(pair (array int) (array int)) in
  QCheck.Test.make ~name:"VAL edge sources: total, echoed iff valid" ~count:300
    (QCheck.make ~print edges) (fun (strong, weak) ->
      let w = make_world ~n ~byzantine:[ 0 ] Config.Full in
      let echoes = count_echoes w ~round:2 in
      let v = forge_edges w ~holder:1 ~round:2 ~weak strong in
      Net.send w.net ~src:0 ~dst:1 v;
      Engine.run w.engine;
      let in_range s = s >= 0 && s < n in
      let rec ascending prev i =
        i >= Array.length strong || (strong.(i) > prev && ascending strong.(i) (i + 1))
      in
      let valid =
        Array.for_all in_range strong && Array.for_all in_range weak && ascending (-1) 0
        && Array.length strong >= 3
        && Array.mem (Config.leader_of_round (Config.make ~n Config.Full) 1) strong
      in
      !echoes > 0 = valid)

let suites =
  [
    ( "consensus.liveness",
      [
        Alcotest.test_case "full mode" `Slow (test_liveness Config.Full);
        Alcotest.test_case "single-clan mode" `Slow
          (test_liveness (Config.Single_clan [| 0; 2; 4; 6 |]));
        Alcotest.test_case "multi-clan mode" `Slow
          (test_liveness (Config.Multi_clan [| [| 0; 1; 2; 3 |]; [| 4; 5; 6 |] |]));
        Alcotest.test_case "all proposers commit" `Slow test_commits_cover_all_proposers;
      ] );
    ( "consensus.clans",
      [
        Alcotest.test_case "single-clan block locality" `Slow test_single_clan_block_locality;
        Alcotest.test_case "multi-clan block locality" `Slow test_multi_clan_block_locality;
      ] );
    ( "consensus.faults",
      [
        Alcotest.test_case "crash faults (full)" `Slow (test_crash_faults Config.Full);
        Alcotest.test_case "crash faults (single-clan)" `Slow
          (test_crash_faults (Config.Single_clan [| 0; 2; 4; 6 |]));
        Alcotest.test_case "crashed leader skipped" `Slow test_crashed_leader_vertices_skipped;
        Alcotest.test_case "equivocating proposer" `Slow test_equivocating_proposer;
        Alcotest.test_case "partial synchrony recovery" `Slow test_partial_synchrony_recovery;
        Alcotest.test_case "Byzantine partial block dissemination" `Slow
          test_byzantine_partial_block_dissemination;
        Alcotest.test_case "unsolicited block reply ignored" `Slow test_unsolicited_block_reply;
        Alcotest.test_case "ancient-round replay ignored" `Slow
          test_ancient_round_traffic_ignored;
        Alcotest.test_case "forged traffic allocates nothing" `Quick
          test_forged_traffic_allocates_nothing;
        Alcotest.test_case "foreign hook block refused" `Quick test_foreign_hook_block_refused;
        Alcotest.test_case "repeated strong edges rejected" `Quick
          test_repeated_strong_edges_rejected;
        Alcotest.test_case "out-of-range edge source rejected" `Quick
          test_out_of_range_edge_rejected;
        Alcotest.test_case "forged certificate settles nothing" `Quick
          test_forged_cert_does_not_settle;
        QCheck_alcotest.to_alcotest prop_edge_sources_total;
      ] );
    ( "consensus.resources",
      [
        Alcotest.test_case "footprint pinned" `Quick test_footprint_pinned;
        Alcotest.test_case "settled instances drop their tally" `Quick
          test_settled_drop_tally;
        Alcotest.test_case "a slot missing its vertex keeps its tally" `Quick
          test_missing_vertex_keeps_tally;
        Alcotest.test_case "stored blocks are packed" `Quick test_stored_blocks_packed;
        Alcotest.test_case "per-slot bookkeeping is bounded" `Quick
          test_slot_bookkeeping_bounded;
        Alcotest.test_case "GC bounds memory" `Slow test_gc_bounds_memory;
        Alcotest.test_case "certificates equal aggregated shares" `Quick
          test_certificates_match_share_aggregate;
        Alcotest.test_case "single-clan traffic asymmetry" `Slow
          test_single_clan_traffic_asymmetry;
      ] );
    ( "consensus.latency",
      [
        Alcotest.test_case "commit latency ~3 delta" `Slow test_commit_latency_3delta;
        Alcotest.test_case "round rate vs RBC depth" `Slow test_round_rate_matches_rbc_depth;
        Alcotest.test_case "deterministic runs" `Slow test_deterministic_runs;
        Alcotest.test_case "latency model table" `Quick test_latency_model_table;
      ] );
  ]
