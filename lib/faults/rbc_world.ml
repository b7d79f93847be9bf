open Clanbft_sim
module Rbc = Clanbft_rbc.Rbc
module Rng = Clanbft_util.Rng
module Keychain = Clanbft_crypto.Keychain
module Digest32 = Clanbft_crypto.Digest32

type delivery = Time.t * int * int * int * Rbc.outcome

type t = {
  engine : Engine.t;
  net : Rbc.msg Net.t;
  keychain : Keychain.t;
  nodes : Rbc.node option array;
  injector : Rbc.msg Faults.t option;
  log : delivery list ref;
}

let create ?(engine = Engine.create ()) ?obs ~topology ~config ~seed ?clan
    ?(byzantine = []) ?(plan = Faults.empty)
    ?(on_deliver = fun _ ~sender:_ ~round:_ _ -> ()) protocol =
  let n = Topology.n topology in
  let rng = Rng.create seed in
  let net =
    Net.create ~engine ~topology ~config ~size:(Rbc.msg_size ~n) ~kind:Rbc.msg_tag
      ?obs ~rng ()
  in
  let injector =
    if Faults.is_empty plan then None
    else
      Some
        (Faults.install ~engine ~net ~rng:(Rng.split rng) ~classify:Rbc.msg_tag
           ~round_of:Rbc.msg_round ?obs plan)
  in
  (* Signatures are simulated tags checked against this registry: its
     seed changes no delivery, time or byte count. *)
  let keychain = Keychain.create ~seed:11L ~n in
  let log = ref [] in
  let nodes =
    Array.init n (fun me ->
        if List.mem me byzantine then begin
          Net.set_handler net me (fun ~src:_ _ -> ());
          None
        end
        else
          Some
            (Rbc.create ~me ~n ?clan ~protocol ~engine ~net ~keychain ?obs
               ~on_deliver:(fun ~sender ~round outcome ->
                 log := (Engine.now engine, me, sender, round, outcome) :: !log;
                 on_deliver me ~sender ~round outcome)
               ()))
  in
  { engine; net; keychain; nodes; injector; log }

let node w i =
  match w.nodes.(i) with
  | Some node -> node
  | None -> invalid_arg (Printf.sprintf "Rbc_world.node: %d is Byzantine" i)

let deliveries w = List.rev !(w.log)

type summary = {
  values : int;
  digests : int;
  stalled : int;
  distinct : int;
  last : Time.t;
}

let summary w =
  let log = !(w.log) in
  let values =
    List.filter_map (function _, _, _, _, Rbc.Value v -> Some v | _ -> None) log
  in
  let digests =
    List.filter_map (function _, _, _, _, Rbc.Digest_only d -> Some d | _ -> None) log
  in
  let honest =
    Array.fold_left (fun k o -> if Option.is_some o then k + 1 else k) 0 w.nodes
  in
  let delivered = List.sort_uniq compare (List.map (fun (_, me, _, _, _) -> me) log) in
  (* Hash each distinct value once: deliveries share the payload. *)
  let hashed = List.map Digest32.hash_string (List.sort_uniq compare values) in
  {
    values = List.length values;
    digests = List.length digests;
    stalled = honest - List.length delivered;
    distinct =
      List.length (List.sort_uniq compare (List.map Digest32.to_raw (hashed @ digests)));
    last = (match log with (t, _, _, _, _) :: _ -> t | [] -> 0);
  }
