open Clanbft
open Clanbft.Sim
open Clanbft.Crypto

(* ------------------------------------------------------------------ *)
(* Harness *)

let make_world ?(n = 7) ?(one_way_ms = 10.) ?(net_config = { Net.default_config with jitter = 0.0 })
    ?(byzantine = []) ?(load = 5) ?params dissemination =
  let engine = Engine.create () in
  let next = ref 0 in
  Smr_world.create ~engine ~topology:(Topology.uniform ~n ~one_way_ms) ~net:net_config ~seed:3L
    ?params ~absent:byzantine
    ~generate:(fun me ~round:_ ->
      Array.init load (fun _ ->
          incr next;
          Transaction.make ~id:!next ~client:me ~created_at:(Engine.now engine) ~size:256 ()))
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
  let txns =
    Array.init count (fun i -> Transaction.make ~id:(first_id + i) ~client:0 ~created_at:0 ())
  in
  let block = Block.make ~proposer:0 ~round:0 ~txns in
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
  let params =
    { Sailfish.default_params with round_timeout = Time.ms 200.; gc_depth = 1_000_000 }
  in
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
        Alcotest.test_case "ancient-round replay ignored" `Slow
          test_ancient_round_traffic_ignored;
        Alcotest.test_case "forged traffic allocates nothing" `Quick
          test_forged_traffic_allocates_nothing;
      ] );
    ( "consensus.resources",
      [
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
