open Clanbft_sim
module Rbc = Clanbft_rbc.Rbc
module Rng = Clanbft_util.Rng
module Keychain = Clanbft_crypto.Keychain
module Digest32 = Clanbft_crypto.Digest32

type delivery = Time.t * int * int * int * Rbc.outcome

type occupant = Honest of Rbc.node | Byzantine of (round:int -> string -> unit)

type t = {
  engine : Engine.t;
  net : Rbc.msg Net.t;
  keychain : Keychain.t;
  nodes : occupant array;
  injector : Rbc.msg Faults.t option;
  log : delivery list ref;
}

let decoy_of value =
  String.mapi
    (fun i c -> if i = 0 then Char.chr ((Char.code c + 1) land 0xff) else c)
    value

(* What the occupant [sender] sends when it opens instance [(sender, round)]
   around [value]. Recipients are visited in id order, so two runs of one
   scenario are bit-identical. *)
let opening ~n ~clan ~protocol ~net ~keychain ~occupied ~colluders ~sender kind
    ~round value =
  let tribe = Rbc.is_tribe protocol and signed = Rbc.is_signed protocol in
  (* Value-entitled recipients: the clan, or everyone outside the tribe
     families. *)
  let entitled =
    match clan with
    | Some members when tribe -> fun i -> Array.mem i members
    | _ -> fun _ -> true
  in
  let send_val dst v =
    Net.send net ~src:sender ~dst (Rbc.Val { sender; round; value = v })
  in
  let send_digest dst v =
    Net.send net ~src:sender ~dst
      (Rbc.Val_digest { sender; round; digest = Digest32.hash_string v })
  in
  (* The one recipient rule both wires share: the first [k] value-entitled
     recipients in id order get [first], every other entitled one [rest],
     and the rest of the tribe the value's digest. *)
  let deal ~k first rest =
    let nth = ref 0 in
    for dst = 0 to n - 1 do
      if dst <> sender then
        if entitled dst then begin
          incr nth;
          (if !nth <= k then first else rest) dst
        end
        else send_digest dst value
    done
  in
  let vote ~signer dsts digest =
    let signature =
      if signed then
        Some
          (Keychain.sign keychain ~signer (Rbc.echo_signing_string ~sender ~round digest))
      else None
    in
    List.iter
      (fun dst ->
        Net.send net ~src:signer ~dst
          (Rbc.Echo { sender; round; digest; signer; signature });
        if not signed then
          Net.send net ~src:signer ~dst
            (Rbc.Ready { sender; round; digest; signer; signature = None }))
      dsts
  in
  match (kind : Strategy.kind) with
  | Split ->
      (* Round-robin over the recipients: the first gets the value, the
         second the decoy, and so on. *)
      let decoy = decoy_of value in
      let fed_value = Array.make n false in
      let slot = ref 0 in
      for dst = 0 to n - 1 do
        if dst <> sender then begin
          fed_value.(dst) <- !slot land 1 = 0;
          incr slot;
          let v = if fed_value.(dst) then value else decoy in
          if entitled dst then send_val dst v else send_digest dst v
        end
      done;
      (* The sender and its colluders back both digests. Alone the sender
         votes at every node (broadcasting both sets is safe: whichever
         digest first reaches an echo quorum at a node absorbs its single
         READY / certificate); with colluders every vote goes only to the
         honest nodes fed that value, so each half certifies its own. *)
      let ids = List.init n Fun.id in
      let backed real =
        ( (if colluders = [] then ids
           else
             List.filter
               (fun dst -> (not (List.mem dst occupied)) && fed_value.(dst) = real)
               ids),
          Digest32.hash_string (if real then value else decoy) )
      in
      let backing = [ backed true; backed false ] in
      List.iter
        (fun signer -> List.iter (fun (dsts, d) -> vote ~signer dsts d) backing)
        (sender :: colluders)
  | Equivocate ->
      let decoy = decoy_of value in
      deal ~k:1 (fun dst -> send_val dst decoy) (fun dst -> send_val dst value)
  | Withhold ->
      (* f_c + 1 of the clan (of the whole tribe without one): the
         smallest exposure that still lets the echo quorum form. A stiffed
         non-tribe party gets nothing at all: honest non-tribe nodes ignore
         digest-only VALs anyway. *)
      let nc = match clan with Some members -> Array.length members | None -> n in
      deal ~k:((nc + 1) / 2)
        (fun dst -> send_val dst value)
        (fun dst -> if tribe then send_digest dst value)
  | Silent | Collude | Censor _ | Grief _ | Sync_storm _ | Reorder _ -> ()

let create ?(engine = Engine.create ()) ?obs ~topology ~config ~seed ?clan
    ?(adversaries = []) ?(plan = Faults.empty)
    ?(on_deliver = fun _ ~sender:_ ~round:_ _ -> ()) protocol =
  let n = Topology.n topology in
  Result.iter_error invalid_arg (Strategy.validate ~n ~wire:`Rbc adversaries);
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
  let occupied = List.map (fun (a : Strategy.spec) -> a.node) adversaries in
  let colluders =
    List.sort compare
      (List.filter_map
         (fun (a : Strategy.spec) -> if a.kind = Collude then Some a.node else None)
         adversaries)
  in
  let nodes =
    Array.init n (fun me ->
        match List.find_opt (fun (a : Strategy.spec) -> a.node = me) adversaries with
        | Some { kind; _ } ->
            Net.set_handler net me (fun ~src:_ _ -> ());
            Byzantine
              (opening ~n ~clan ~protocol ~net ~keychain ~occupied ~colluders ~sender:me
                 kind)
        | None ->
            Honest
              (Rbc.create ~me ~n ?clan ~protocol ~engine ~net ~keychain ?obs
                 ~on_deliver:(fun ~sender ~round outcome ->
                   log := (Engine.now engine, me, sender, round, outcome) :: !log;
                   on_deliver me ~sender ~round outcome)
                 ()))
  in
  { engine; net; keychain; nodes; injector; log }

let node w i =
  match w.nodes.(i) with
  | Honest node -> node
  | Byzantine _ -> invalid_arg (Printf.sprintf "Rbc_world.node: %d is Byzantine" i)

let broadcast w ~sender ~round value =
  match w.nodes.(sender) with
  | Honest node -> Rbc.broadcast node ~round value
  | Byzantine opening -> opening ~round value

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
    Array.fold_left
      (fun k o -> match o with Honest _ -> k + 1 | Byzantine _ -> k)
      0 w.nodes
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
