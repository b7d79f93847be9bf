(* Quickstart: a 10-node tribe running single-clan Sailfish on the paper's
   geo-distributed topology, with a client submitting transactions to the
   clan and waiting for fc+1 matching execution receipts.

     dune exec examples/quickstart.exe *)

open Clanbft
open Clanbft.Sim

let () =
  let n = 10 in

  (* 1. Size the clan: smallest committee with an honest majority except
     with probability < 1e-6, computed exactly (paper Eq. 1-2). For a toy
     n=10 tribe the analysis needs most of the tribe — clans shine as n
     grows (see Figure 1) — so this is purely illustrative. *)
  let threshold = Bigint.Rat.of_ints 1 1_000_000 in
  let nc =
    match Committee.min_clan_size ~n ~f:(Committee.default_f n) ~threshold () with
    | Some nc -> nc
    | None -> n
  in
  Printf.printf "clan size for n=%d at failure < 1e-6: %d\n" n nc;
  let clan = Committee.elect_balanced ~n ~nc in

  (* 2. The client: it accepts a result once fc+1 clan members vouch for
     it. *)
  let engine = Engine.create () in
  let config = Config.make ~n (Config.Single_clan clan) in
  Format.printf "%a@." Config.pp config;
  let client =
    Client.create ~engine ~config ~id:1
      ~on_complete:(fun txn ~latency ->
        Printf.printf "  txn %d accepted after %.1f ms\n" txn.Transaction.id
          (Time.to_ms latency))
      ()
  in

  (* 3. The simulated world: GCP topology (Table 1), a network with
     per-node uplink bandwidth, keys, and one replica per node —
     consensus + mempool + execution. Execution receipts flow back to the
     client with the reverse one-way delay. *)
  let topology = Topology.gcp_table1 ~n in
  let world =
    Smr_world.create ~engine ~topology ~net:Net.default_config ~seed:42L
      ~on_txn_executed:(fun me txn receipt ->
        Engine.schedule_after engine (Topology.one_way topology ~src:me ~dst:0)
          (fun () -> Client.deliver_response client ~executor:me txn receipt))
      config
  in
  Smr_world.start world;
  let node = Smr_world.node world in

  (* 4. Submit a few transactions to clan proposers (clients only talk to
     the clan, §5) and run the simulation. *)
  let proposers = Array.of_list (Config.block_proposers config) in
  for i = 0 to 19 do
    Engine.schedule_at engine (Time.ms (float_of_int (100 * i))) (fun () ->
        let txn = Client.make_txn client () in
        Client.track client txn ~clan:0;
        ignore (Node.submit (node proposers.(i mod Array.length proposers)) txn))
  done;
  Engine.run ~until:(Time.s 8.) engine;

  (* 5. Report. *)
  Printf.printf "\ncompleted %d/20 transactions, mean accept latency %.1f ms\n"
    (Client.completed client) (Client.mean_latency_ms client);
  Printf.printf "node 0: round=%d, ordered %d vertices, executed %d txns\n"
    (Sailfish.current_round (Node.consensus (node 0)))
    (Sailfish.committed_count (Node.consensus (node 0)))
    (Node.executed_txns (node 0));
  let inside = Execution.state_digest (Node.execution (node clan.(0))) in
  let other = Execution.state_digest (Node.execution (node clan.(1))) in
  Printf.printf "replicated state digests agree across the clan: %b\n"
    (Crypto.Digest32.equal inside other)
