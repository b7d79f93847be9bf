open Clanbft_types
open Clanbft_sim
module Sailfish = Clanbft_consensus.Sailfish
module Keychain = Clanbft_crypto.Keychain
module Rng = Clanbft_util.Rng
module Faults = Clanbft_faults.Faults
module Strategy = Clanbft_faults.Strategy

type divergence = {
  node : int;
  position : int;
  slot : int * int;
  canonical : int * int;
}

let describe d =
  let r, s = d.slot and r0, s0 = d.canonical in
  Printf.sprintf "node %d committed (%d,%d) at position %d where the canonical order has (%d,%d)"
    d.node r s d.position r0 s0

(* Growable int array. *)
module Intvec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 256 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then v.data <- Array.append v.data (Array.make v.len 0);
    v.data.(v.len) <- x;
    v.len <- v.len + 1
end

let mix h x =
  let h = h lxor (x * 0x9E3779B97F4A7C1) in
  let h = h lxor (h lsr 29) in
  h * 0xBF58476D1CE4E5B |> fun h -> h lxor (h lsr 32)

module Ledger = struct
  (* Slots are keyed by one int per (round, source); sources stay below
     the multiplier. *)
  type t = {
    seqs : Intvec.t array; (* per replica: its committed slot keys *)
    canon : Intvec.t; (* per position: the key the first checked replica there committed *)
    mutable divergence : divergence option;
  }

  let key_base = 1_000_003
  let slot_of key = (key / key_base, key mod key_base)

  let create ~n =
    { seqs = Array.init n (fun _ -> Intvec.create ()); canon = Intvec.create (); divergence = None }

  let commit t me ~checked ~round ~source =
    let seq = t.seqs.(me) and key = (round * key_base) + source in
    let position = seq.len in
    Intvec.push seq key;
    if checked then
      if position = t.canon.len then Intvec.push t.canon key
      else if position < t.canon.len && t.canon.data.(position) <> key && t.divergence = None
      then
        t.divergence <-
          Some
            { node = me; position; slot = (round, source); canonical = slot_of t.canon.data.(position) }

  let reset t me = t.seqs.(me) <- Intvec.create ()
  let sequence t me = let v = t.seqs.(me) in Array.init v.len (fun i -> slot_of v.data.(i))

  let chain t me =
    let v = t.seqs.(me) and h = ref 0 in
    Array.init v.len (fun i ->
        h := mix !h v.data.(i);
        !h)

  let fingerprint t ids =
    List.fold_left
      (fun acc i ->
        let v = t.seqs.(i) and h = ref 0 in
        for j = 0 to v.len - 1 do
          h := mix !h v.data.(j)
        done;
        mix (mix acc !h) v.len)
      (List.length ids) ids

  let divergence t = t.divergence
end

type t = {
  engine : Engine.t;
  net : Msg.t Net.t;
  keychain : Keychain.t;
  nodes : Node.t option array;
  persist : Persist.t array;
  unchecked : int list;
  ledger : Ledger.t;
}

let compared w me =
  (not (List.mem me w.unchecked))
  &&
  match w.nodes.(me) with
  | Some node -> not (Sailfish.snapshot_joined (Node.consensus node))
  | None -> false

let create ?(engine = Engine.create ()) ?obs ~topology ~net:net_config ~seed ?params
    ?(absent = []) ?(unchecked = []) ?(plan = Faults.empty) ?(adversaries = [])
    ?(persist = false) ?(restarts = []) ?generate ?(on_commit = fun _ ~leader:_ _ -> ())
    ?on_deliver ?on_txn_executed config =
  let n = Config.n config in
  let rng = Rng.create seed in
  let net =
    Net.create ~engine ~topology ~config:net_config ~size:(Msg.wire_size ~n) ~kind:Msg.tag
      ?obs ~rng:(Rng.split rng) ()
  in
  let keychain = Keychain.create ~seed:(Rng.next_int64 rng) ~n in
  let w =
    {
      engine;
      net;
      keychain;
      nodes = Array.make n None;
      (* A restarting replica replays its write-ahead log. *)
      persist =
        (if persist || restarts <> [] then Array.init n (fun _ -> Persist.create ~engine ~n ())
         else [||]);
      unchecked;
      ledger = Ledger.create ~n;
    }
  in
  let make_node me =
    Node.create ~me ~config ~keychain ~engine ~net ?params ?obs
      ?persist:(if Array.length w.persist = 0 then None else Some w.persist.(me))
      ?generate:(Option.map (fun g -> g me) generate)
      ~on_commit:(fun ~leader vertices ->
        let checked = compared w me in
        List.iter
          (fun (v : Vertex.t) -> Ledger.commit w.ledger me ~checked ~round:v.round ~source:v.source)
          vertices;
        on_commit me ~leader vertices)
      ?on_deliver:(Option.map (fun f -> f me) on_deliver)
      ?on_txn_executed:(Option.map (fun f -> f me) on_txn_executed)
      ()
  in
  for me = 0 to n - 1 do
    if List.mem me absent then
      Net.set_handler net me ~settled:(fun ~src:_ ~arrival:_ _ -> true) (fun ~src:_ _ -> ())
    else w.nodes.(me) <- Some (make_node me)
  done;
  (* Installed after the nodes so an empty plan consumes no RNG draws: a
     benign run draws the same stream as one without an injector. *)
  if not (Faults.is_empty plan) then
    ignore
      (Faults.install ~engine ~net ~rng:(Rng.split rng) ~classify:Msg.tag ~round_of:Msg.round
         ?obs plan);
  (* Strategies wrap whatever filter the plan installed (or the default
     pass-through): they rule first, delegating untouched traffic to the
     network fault rules. An empty list installs nothing. *)
  Strategy.install ~engine ~net ~keychain ~config
    ~round_timeout:(Option.value params ~default:Sailfish.default_params).round_timeout ?obs
    adversaries;
  (* Node construction and WAL replay draw no randomness, so the restart
     path perturbs nothing else. *)
  List.iter
    (fun (r : Faults.restart) ->
      Net.will_replace net r.node ~at:r.recover_at;
      Engine.schedule_at engine r.crash_at (fun () -> Option.iter Node.stop w.nodes.(r.node));
      Engine.schedule_at engine r.recover_at (fun () ->
          Ledger.reset w.ledger r.node;
          let node = make_node r.node in
          w.nodes.(r.node) <- Some node;
          Node.recover node))
    restarts;
  w

let replicas w = List.filter_map Fun.id (Array.to_list w.nodes)
let start w = List.iter Node.start (replicas w)

let node w i =
  match w.nodes.(i) with
  | Some node -> node
  | None -> invalid_arg (Printf.sprintf "Smr_world.node: %d runs no replica" i)

let divergence w = Ledger.divergence w.ledger
