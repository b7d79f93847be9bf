(* Shared sequencer (paper §6.1): one multi-clan tribe orders transactions
   for two independent applications. Each application is served by its own
   clan — its transactions are disseminated and executed only there — while
   the whole tribe agrees on a single global order.

     dune exec examples/shared_sequencer.exe *)

open Clanbft
open Clanbft.Sim

let apps = [| "dex"; "game" |]

let () =
  let n = 12 in
  (* Two disjoint clans partition the tribe; clan c sequences app c. *)
  let clans = Committee.partition_balanced ~n ~q:2 in
  let config = Config.make ~n (Config.Multi_clan clans) in
  Format.printf "%a@." Config.pp config;
  Array.iteri
    (fun c members ->
      Printf.printf "app %-5s -> clan %d = [%s]\n" apps.(c) c
        (String.concat ";" (Array.to_list (Array.map string_of_int members))))
    clans;

  (* Each replica proposes blocks carrying its own app's transactions:
     proposer p belongs to clan (p mod 2), and clients of app c submit to
     clan c's members. *)
  let next_txn = ref 0 in
  let executed = Array.make 2 0 in
  let sequenced = ref [] in
  let world =
    Smr_world.create ~topology:(Topology.gcp_table1 ~n) ~net:Net.default_config ~seed:11L
      ~on_commit:(fun me ~leader:_ vertices ->
        if me = 0 then
          (* Node 0 narrates the global sequence: every vertex is ordered
             tribe-wide even though payloads stay clan-local. *)
          List.iter
            (fun (v : Vertex.t) ->
              match Config.clan_of config v.source with
              | Some c when List.length !sequenced < 12 ->
                  sequenced := (v.round, v.source, apps.(c)) :: !sequenced
              | _ -> ())
            vertices)
      ~on_txn_executed:(fun me _txn _receipt ->
        match Config.clan_of config me with
        | Some c -> executed.(c) <- executed.(c) + 1
        | None -> ())
      config
  in
  let engine = world.engine and node = Smr_world.node world in
  Smr_world.start world;

  (* Clients: app "dex" is busier than app "game". *)
  let submit ~app_clan count =
    let members = clans.(app_clan) in
    for i = 1 to count do
      incr next_txn;
      let txn =
        Transaction.make ~id:!next_txn ~client:(100 + app_clan)
          ~created_at:(Engine.now engine) ()
      in
      ignore (Node.submit (node members.(i mod Array.length members)) txn)
    done
  in
  for tick = 0 to 9 do
    Engine.schedule_at engine (Time.ms (float_of_int (200 * tick))) (fun () ->
        submit ~app_clan:0 8;
        submit ~app_clan:1 3)
  done;
  Engine.run ~until:(Time.s 6.) engine;

  Printf.printf "\nfirst ordered vertices (global sequence, tagged by app):\n";
  List.iter
    (fun (round, source, app) ->
      Printf.printf "  round %-3d proposer %-3d app %s\n" round source app)
    (List.rev !sequenced);
  Printf.printf "\nper-app executed transaction events (txn x clan member):\n";
  Array.iteri (fun c count -> Printf.printf "  %-5s: %d\n" apps.(c) count) executed;
  (* Each clan executes only its own app's payloads, yet the digest chains
     agree tribe-wide because remote blocks fold in by digest. *)
  let d0 = Execution.state_digest (Node.execution (node clans.(0).(0))) in
  let d1 = Execution.state_digest (Node.execution (node clans.(1).(0))) in
  Printf.printf "\ncross-clan ordering chains agree: %b\n" (Crypto.Digest32.equal d0 d1)
