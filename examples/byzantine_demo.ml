(* Byzantine behaviour demo: what the tribe-assisted broadcast layer
   actually prevents.

   Scene 1 — an equivocating proposer sends two different round-0 proposals
   to two halves of the tribe: neither version can gather 2f+1 ECHOes, so
   no honest party ever delivers either, and the rest of the system keeps
   committing without it.

   Scene 2 — a proposer that withholds its block from most of the clan:
   the fc+1 clan-echo rule guarantees an honest clan member holds the
   block, and the others pull it off the critical path.

     dune exec examples/byzantine_demo.exe *)

open Clanbft
open Clanbft.Sim
open Clanbft.Crypto

let n = 7
let clan = [| 0; 2; 4; 6 |]

(* Node 0 is Byzantine: it runs no replica, and we drive it by hand over
   the raw network. *)
let build_world () =
  let params = { Sailfish.round_timeout = Time.ms 250.; gc_depth = 1_000_000 } in
  let world =
    Smr_world.create ~topology:(Topology.uniform ~n ~one_way_ms:15.0)
      ~net:{ Net.default_config with jitter = 0.0 } ~seed:9L ~params ~absent:[ 0 ]
      (Config.make ~n (Config.Single_clan clan))
  in
  (world, Array.map (Option.map Node.consensus) world.nodes)

let forge_proposal keychain ~tag =
  let txns =
    Array.init 2 (fun i -> Transaction.make ~id:((tag * 100) + i) ~client:0 ~created_at:0 ())
  in
  let block = Block.make ~proposer:0 ~round:0 ~txns in
  let vertex =
    Vertex.make ~round:0 ~source:0 ~block_digest:(Block.digest block)
      ~strong_edges:[||] ~weak_edges:[||] ()
  in
  (vertex, block, Keychain.sign keychain ~signer:0 (Msg.val_signing_string vertex))

let () =
  Printf.printf "=== Scene 1: equivocation ===\n";
  let world, nodes = build_world () in
  let v1, b1, s1 = forge_proposal world.keychain ~tag:1 in
  let v2, b2, s2 = forge_proposal world.keychain ~tag:2 in
  Printf.printf "Byzantine node 0 proposes %s to nodes 1-3 and %s to nodes 4-6\n"
    (Digest32.short v1.Vertex.digest) (Digest32.short v2.Vertex.digest);
  Smr_world.start world;
  for dst = 1 to 6 do
    let v, b, s = if dst <= 3 then (v1, b1, s1) else (v2, b2, s2) in
    Net.send world.net ~src:0 ~dst (Msg.Val { vertex = v; block = Some b; signature = s })
  done;
  Engine.run ~until:(Time.s 5.) world.engine;
  let delivered =
    List.filter_map
      (fun i ->
        match nodes.(i) with
        | Some node -> Sailfish.vertex_of node ~round:0 ~source:0
        | None -> None)
      [ 1; 2; 3; 4; 5; 6 ]
    |> List.filter_map (fun v ->
           (* only count slots that actually entered a DAG *) Some v.Vertex.digest)
  in
  Printf.printf
    "after 5s: %d honest DAGs contain a round-0 vertex from the equivocator\n"
    (List.length delivered);
  (match nodes.(1) with
  | Some node ->
      Printf.printf
        "meanwhile the rest of the tribe reached round %d (liveness intact)\n"
        (Sailfish.current_round node)
  | None -> ());

  Printf.printf "\n=== Scene 2: withheld block ===\n";
  let world, nodes = build_world () in
  let v, b, s = forge_proposal world.keychain ~tag:3 in
  Printf.printf
    "Byzantine node 0 sends vertex+block only to clan members 2,4;\n\
     bare vertex to everyone else (clan member 6 gets the vertex, no block)\n";
  Smr_world.start world;
  for dst = 1 to 6 do
    let block = if dst = 2 || dst = 4 then Some b else None in
    Net.send world.net ~src:0 ~dst (Msg.Val { vertex = v; block; signature = s })
  done;
  Engine.run ~until:(Time.s 5.) world.engine;
  (match nodes.(6) with
  | Some node -> (
      match Sailfish.block_of node ~round:0 ~source:0 with
      | Some pulled ->
          Printf.printf
            "clan member 6 obtained the block anyway (pulled, digest %s) — the\n\
             fc+1 clan-echo rule guaranteed an honest holder existed\n"
            (Digest32.short (Block.digest pulled))
      | None -> Printf.printf "clan member 6 could not obtain the block (unexpected)\n")
  | None -> ());
  match nodes.(1) with
  | Some node ->
      Printf.printf "outsider 1 committed the digest only (stores no block): %b\n"
        (Sailfish.block_of node ~round:0 ~source:0 = None)
  | None -> ()
