open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Time = Clanbft_sim.Time
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace

(* Per-digest vote state within an instance: an equivocating sender creates
   several candidate digests, and quorums are counted per digest. *)
type votes = {
  voters : Bitset.t;
  mutable clan_votes : int;
  mutable shares : (int * Keychain.signature) list; (* signed mode *)
  (* Echo signing string for this digest, built and hashed once: every one
     of the ~n echo receipts and the certificate check verify against the
     same string, and both rebuilding and rehashing it per receipt showed
     up in profiles (echo receipts are ~n³ per round at paper scale). *)
  signing : string;
  signing_h : Keychain.msg_hash;
}

type 'e inst = {
  sender : int;
  round : int;
  ext : 'e;
  mutable agreed : Digest32.t option;
  mutable delivered : bool;
  echoes : votes Digest32.Tbl.t;
  mutable readies : votes Digest32.Tbl.t option; (* unsigned mode only *)
  mutable sent_echo : bool;
  mutable sent_ready : bool;
  mutable sent_cert : bool;
  mutable cert : Keychain.aggregate option;
  served : (int, int) Hashtbl.t; (* peer -> pull replies served *)
}

type ('e, 'm) ctx = {
  fresh : unit -> 'e;
  signing : sender:int -> round:int -> Digest32.t -> string;
  in_clan : sender:int -> int -> bool;
  clan_threshold : sender:int -> int;
  relays_cert : sender:int -> bool;
  keep_certs : bool;
  echo :
    sender:int -> round:int -> Digest32.t -> signer:int -> Keychain.signature option -> 'm;
  ready : sender:int -> round:int -> Digest32.t -> signer:int -> 'm;
  echo_cert :
    sender:int -> round:int -> Digest32.t -> Keychain.aggregate -> clan_echoes:int -> 'm;
}

type ('e, 'm) t = {
  me : int;
  n : int;
  quorum : int;
  weak_quorum : int;
  signed : bool;
  engine : Engine.t;
  net : 'm Net.t;
  keychain : Keychain.t;
  retry : Time.span;
  budget : int;
  trace : Trace.t;
  pull_retries : Metrics.counter;
  ctx : ('e, 'm) ctx;
  (* keyed by [round * n + sender]: echo receipts probe this table ~n³
     times per round, and a packed int key avoids the per-probe pair
     allocation and structural hash of an (int * int) key *)
  instances : (int, 'e inst) Hashtbl.t;
}

let create ~me ~n ~f ~signed ~engine ~net ~keychain ~retry ~budget ~trace
    ~pull_retries ctx =
  {
    me;
    n;
    quorum = (2 * f) + 1;
    weak_quorum = f + 1;
    signed;
    engine;
    net;
    keychain;
    retry;
    budget;
    trace;
    pull_retries;
    ctx;
    instances = Hashtbl.create 256;
  }

let trace_phase c ~sender ~round phase =
  if Trace.enabled c.trace then
    Trace.emit c.trace ~ts:(Engine.now c.engine)
      (Trace.Rbc_phase { node = c.me; sender; round; phase })

let trace c inst phase = trace_phase c ~sender:inst.sender ~round:inst.round phase
let key c ~sender ~round = (round * c.n) + sender

(* Senders come off the wire; one outside the committee would alias another
   instance's packed key. *)
let in_range c sender = sender >= 0 && sender < c.n

let find c ~sender ~round =
  if in_range c sender then Hashtbl.find_opt c.instances (key c ~sender ~round)
  else None

let get c ~sender ~round =
  match Hashtbl.find_opt c.instances (key c ~sender ~round) with
  | Some i -> i
  | None ->
      let i =
        {
          sender;
          round;
          ext = c.ctx.fresh ();
          agreed = None;
          delivered = false;
          echoes = Digest32.Tbl.create 2;
          readies = None;
          sent_echo = false;
          sent_ready = false;
          sent_cert = false;
          cert = None;
          served = Hashtbl.create 4;
        }
      in
      Hashtbl.replace c.instances (key c ~sender ~round) i;
      i

let footprint c =
  Hashtbl.fold
    (fun _ i (insts, digests) ->
      let readies =
        match i.readies with None -> 0 | Some t -> Digest32.Tbl.length t
      in
      (insts + 1, digests + Digest32.Tbl.length i.echoes + readies))
    c.instances (0, 0)

let prune_below c ~round =
  let doomed =
    Hashtbl.fold
      (fun k i acc -> if i.round < round then k :: acc else acc)
      c.instances []
  in
  List.iter (Hashtbl.remove c.instances) doomed

let votes c known ~sender ~round digest =
  match known with
  | Some v -> v
  | None ->
      let signing = c.ctx.signing ~sender ~round digest in
      let signing_h = Keychain.hash_msg signing in
      { voters = Bitset.create c.n; clan_votes = 0; shares = []; signing; signing_h }

let voters tbl digest =
  match Digest32.Tbl.find_opt tbl digest with
  | Some v -> Bitset.to_list v.voters
  | None -> []

let echo_voters inst digest = voters inst.echoes digest

let ready_voters inst digest =
  match inst.readies with None -> [] | Some t -> voters t digest

(* ------------------------------------------------------------------ *)
(* Sending *)

let send_echo c inst digest =
  if not inst.sent_echo then begin
    inst.sent_echo <- true;
    trace c inst Trace.Echo;
    let signature =
      if c.signed then
        Some
          (Keychain.sign c.keychain ~signer:c.me
             (c.ctx.signing ~sender:inst.sender ~round:inst.round digest))
      else None
    in
    Net.broadcast c.net ~src:c.me
      (c.ctx.echo ~sender:inst.sender ~round:inst.round digest ~signer:c.me
         signature)
  end

let send_ready c inst digest =
  if not inst.sent_ready then begin
    inst.sent_ready <- true;
    trace c inst Trace.Ready;
    Net.broadcast c.net ~src:c.me
      (c.ctx.ready ~sender:inst.sender ~round:inst.round digest ~signer:c.me)
  end

let agree c inst digest =
  if Option.is_none inst.agreed then trace c inst Trace.Cert;
  inst.agreed <- Some digest

(* ------------------------------------------------------------------ *)
(* Receiving *)

(* Signed mode: 2f+1 ECHOs, of which >= the clan threshold from the
   sender's clan, form a certificate; the sender's relayers broadcast it.
   Unsigned mode: the same quorum sends READY. *)
let echo_quorum c inst digest (v : votes) =
  if c.signed then begin
    inst.sent_cert <- true;
    if c.ctx.relays_cert ~sender:inst.sender then begin
      match Keychain.aggregate c.keychain ~msg:v.signing v.shares with
      | None -> ()
      | Some agg ->
          if c.ctx.keep_certs then inst.cert <- Some agg;
          Net.broadcast c.net ~src:c.me
            (c.ctx.echo_cert ~sender:inst.sender ~round:inst.round digest agg
               ~clan_echoes:v.clan_votes)
    end;
    Some inst
  end
  else begin
    send_ready c inst digest;
    None
  end

(* Nothing is stored for a message until it has verified: [known] is the
   instance's vote record for [digest], if any; otherwise a fresh one is
   attached only once its first message checks out. *)
let echo_votes found digest =
  match found with
  | Some i -> Digest32.Tbl.find_opt i.echoes digest
  | None -> None

let attach c found ~sender ~round digest known v =
  let inst = match found with Some i -> i | None -> get c ~sender ~round in
  if Option.is_none known then Digest32.Tbl.replace inst.echoes digest v;
  inst

let on_echo c ~sender ~round digest ~signer signature =
  if not (in_range c sender) then None
  else
    let found = Hashtbl.find_opt c.instances (key c ~sender ~round) in
    match found with
    (* Once this node has formed its certificate every later echo is dead
       weight: the threshold branch is the only consumer of the vote
       bookkeeping, and pull candidates are snapshotted at certification.
       Skipping the ~n - 2f-1 post-certificate echoes (verify included)
       changes no message and no observable state. *)
    | Some inst when inst.sent_cert -> None
    | _ ->
        let known = echo_votes found digest in
        let v = votes c known ~sender ~round digest in
        if
          c.signed
          && not (Keychain.verify_hashed c.keychain ~signer v.signing_h signature)
        then None
        else begin
          let inst = attach c found ~sender ~round digest known v in
          if not (Bitset.add v.voters signer) then None
          else begin
            if c.ctx.in_clan ~sender signer then v.clan_votes <- v.clan_votes + 1;
            if c.signed then v.shares <- (signer, signature) :: v.shares;
            if
              Bitset.cardinal v.voters >= c.quorum
              && v.clan_votes >= c.ctx.clan_threshold ~sender
            then echo_quorum c inst digest v
            else None
          end
        end

(* Unsigned mode: f+1 READYs amplify, 2f+1 settle the digest. *)
let on_ready c ~sender ~round digest ~signer =
  if c.signed || not (in_range c sender) then None
  else begin
    let inst = get c ~sender ~round in
    let tbl =
      match inst.readies with
      | Some t -> t
      | None ->
          let t = Digest32.Tbl.create 2 in
          inst.readies <- Some t;
          t
    in
    let known = Digest32.Tbl.find_opt tbl digest in
    let v = votes c known ~sender ~round digest in
    if Option.is_none known then Digest32.Tbl.replace tbl digest v;
    if not (Bitset.add v.voters signer) then None
    else begin
      let count = Bitset.cardinal v.voters in
      if count >= c.weak_quorum then send_ready c inst digest;
      if count >= c.quorum then Some inst else None
    end
  end

let clan_count c ~sender signers =
  Bitset.fold
    (fun i acc -> if c.ctx.in_clan ~sender i then acc + 1 else acc)
    signers 0

let on_echo_cert c ~sender ~round digest agg =
  if (not c.signed) || not (in_range c sender) then None
  else
    let found = Hashtbl.find_opt c.instances (key c ~sender ~round) in
    match found with
    | Some inst when inst.delivered -> None
    | _ ->
        let signers = Keychain.signers agg in
        let threshold = c.ctx.clan_threshold ~sender in
        if
          Bitset.cardinal signers < c.quorum
          || (threshold > 0 && clan_count c ~sender signers < threshold)
        then None
        else
          let known = echo_votes found digest in
          let v = votes c known ~sender ~round digest in
          if not (Keychain.verify_aggregate_hashed c.keychain ~hash:v.signing_h agg)
          then None
          else begin
            let inst = attach c found ~sender ~round digest known v in
            if c.ctx.keep_certs then inst.cert <- Some agg;
            Some inst
          end

(* ------------------------------------------------------------------ *)
(* Pulling *)

let serve c ~sender ~round ~src reply =
  match find c ~sender ~round with
  | None -> ()
  | Some inst -> (
      match reply inst with
      | None -> ()
      | Some reply ->
          let served =
            Option.value ~default:0 (Hashtbl.find_opt inst.served src)
          in
          if served < c.budget then begin
            Hashtbl.replace inst.served src (served + 1);
            Net.send c.net ~src:c.me ~dst:src reply
          end)

let rec sweep c inst ~live ~request ~cycles ~restart candidates =
  if live () then
    match candidates with
    | target :: rest ->
        Metrics.incr c.pull_retries;
        trace c inst Trace.Pull_retry;
        Net.send c.net ~src:c.me ~dst:target request;
        Engine.schedule_after c.engine c.retry (fun () ->
            sweep c inst ~live ~request ~cycles ~restart rest)
    | [] ->
        (* Sweep exhausted. Under transient loss, slow peers or a muted
           source a one-shot traversal is a liveness hole, and a
           constant-rate one is a pull storm: go around again under
           exponential backoff capped at 16 x retry. *)
        Engine.schedule_after c.engine
          (c.retry * (1 lsl min cycles 4))
          (fun () -> restart (cycles + 1))
