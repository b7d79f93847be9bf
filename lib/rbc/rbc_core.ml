open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Round_rows = Clanbft_util.Round_rows
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
  (* Signed mode: the XOR of the verified echo signatures, folded in place
     as they arrive, so no share is held; the certificate is cut from it at
     this node's own quorum. *)
  acc : Keychain.accumulator;
  (* Hash of the echo signing string for this digest, computed once: every
     one of the ~n echo receipts and the certificate check verify against
     it, and both rebuilding and rehashing the string per receipt showed up
     in profiles (echo receipts are ~n³ per round at paper scale). The
     string itself is not kept; [send_echo] rebuilds it. *)
  signing_h : Keychain.msg_hash;
}

(* The absent vote record: lookups return it instead of an option, so the
   echo path allocates nothing to ask. Never mutated. *)
let no_votes =
  {
    voters = Bitset.create 0;
    clan_votes = 0;
    acc = Keychain.accumulator ();
    signing_h = Keychain.hash_msg "";
  }

(* What an instance needs only now and then, in one record so the common
   instance carries one word for all four: echo votes for further digests
   (made on the second, i.e. by an equivocating sender), READY votes
   (unsigned mode), the certificate kept to re-prove the instance, and the
   pull replies served per peer. *)
type side = {
  mutable more_echoes : votes Digest32.Tbl.t option;
  mutable readies : votes Digest32.Tbl.t option;
  mutable cert : Keychain.aggregate option;
  mutable served : (int, int) Hashtbl.t option;
}

(* The side record of every instance that has not needed one. Never
   mutated: writers go through [side]. *)
let no_side = { more_echoes = None; readies = None; cert = None; served = None }

type 'e inst = {
  sender : int;
  round : int;
  ext : 'e;
  mutable flags : int;
  mutable agreed : Digest32.t;
  (* The first digest's echo votes sit inline; a table in [side] only once
     a second digest appears (equivocation). *)
  mutable first : Digest32.t;
  mutable first_votes : votes;
  mutable side : side;
}

(* [flags] bits *)
let delivered_bit = 1
let agreed_bit = 2
let sent_echo_bit = 4
let sent_ready_bit = 8
let sent_cert_bit = 16
let first_bit = 32 (* [first] is attached, whether or not its tally still is *)
let has inst bit = inst.flags land bit <> 0
let set inst bit = inst.flags <- inst.flags lor bit
let is_delivered inst = has inst delivered_bit
let mark_delivered inst = set inst delivered_bit
let sent_cert inst = has inst sent_cert_bit
let agreed inst = if has inst agreed_bit then Some inst.agreed else None

let cert inst = inst.side.cert

(* The instance's own side record, made on first use. *)
let side inst =
  if inst.side != no_side then inst.side
  else begin
    let s = { more_echoes = None; readies = None; cert = None; served = None } in
    inst.side <- s;
    s
  end

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
  (* (round, sender) -> instance: echo and certificate receipts look up
     ~n³ times per round, each an index into a cached row *)
  instances : 'e inst Round_rows.t;
  (* What [lookup] answers for a slot without an instance, so the receive
     paths ask without allocating an option. Never stored, returned or
     mutated. *)
  absent : 'e inst;
}

let new_inst ext ~sender ~round =
  {
    sender;
    round;
    ext;
    flags = 0;
    agreed = Digest32.zero;
    first = Digest32.zero;
    first_votes = no_votes;
    side = no_side;
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
    instances = Round_rows.create ~n;
    absent = new_inst (ctx.fresh ()) ~sender:(-1) ~round:min_int;
  }

let trace_phase c ~sender ~round phase =
  if Trace.enabled c.trace then
    Trace.emit c.trace ~ts:(Engine.now c.engine)
      (Trace.Rbc_phase { node = c.me; sender; round; phase })

let trace c inst phase = trace_phase c ~sender:inst.sender ~round:inst.round phase
(* Senders come off the wire: one outside the committee has no instance. *)
let in_range c sender = sender >= 0 && sender < c.n
let find c ~sender ~round = Round_rows.find c.instances ~round ~source:sender

(* The instance, or [c.absent] (also for a sender outside the committee). *)
let lookup c ~sender ~round = Round_rows.find_or c.instances ~round ~source:sender c.absent

let get c ~sender ~round =
  let i = lookup c ~sender ~round in
  if i != c.absent then i
  else begin
    let i = new_inst (c.ctx.fresh ()) ~sender ~round in
    Round_rows.set c.instances ~round ~source:sender i;
    i
  end

let tbl_length = function None -> 0 | Some t -> Digest32.Tbl.length t

let fold f c acc = Round_rows.fold f c.instances acc

let footprint c =
  fold
    (fun i (insts, digests) ->
      let first = if has i first_bit then 1 else 0 in
      (insts + 1, digests + first + tbl_length i.side.more_echoes + tbl_length i.side.readies))
    c (0, 0)

let heap_root c = Obj.repr c.instances
let prune_below c ~round = Round_rows.drop_below c.instances round

(* The hash of [digest]'s echo signing string: [known]'s, unless it is
   [no_votes]. *)
let signing_hash c known ~sender ~round digest =
  if known != no_votes then known.signing_h
  else Keychain.hash_msg (c.ctx.signing ~sender ~round digest)

(* [known] itself, or a fresh record when it is [no_votes]. *)
let votes c known ~sender ~round digest =
  if known != no_votes then known
  else
    {
      voters = Bitset.create c.n;
      clan_votes = 0;
      acc = Keychain.accumulator ();
      signing_h = signing_hash c known ~sender ~round digest;
    }

let find_votes tbl digest =
  match tbl with
  | None -> no_votes
  | Some t -> ( try Digest32.Tbl.find t digest with Not_found -> no_votes)

(* [first_votes] is [no_votes] while [first] is unattached (and once the
   tally is dropped), so a match on [first] is right either way. *)
let echo_votes inst digest =
  if Digest32.equal inst.first digest then inst.first_votes
  else find_votes inst.side.more_echoes digest

(* [tbl] with [digest]'s votes added, made on the first. *)
let add_votes tbl digest v =
  let t = match tbl with Some t -> t | None -> Digest32.Tbl.create 2 in
  Digest32.Tbl.replace t digest v;
  Some t

let add_echo_votes inst digest v =
  if not (has inst first_bit) then begin
    set inst first_bit;
    inst.first <- digest;
    inst.first_votes <- v
  end
  else
    let s = side inst in
    s.more_echoes <- add_votes s.more_echoes digest v

let echo_voters inst digest = Bitset.to_list (echo_votes inst digest).voters
let ready_voters inst digest = Bitset.to_list (find_votes inst.side.readies digest).voters
let holds_tally inst = inst.first_votes != no_votes || Option.is_some inst.side.more_echoes

let drop_tally inst =
  if is_delivered inst && sent_cert inst then begin
    inst.first_votes <- no_votes;
    (* guarded, so [no_side] is never written *)
    if Option.is_some inst.side.more_echoes then inst.side.more_echoes <- None
  end

(* ------------------------------------------------------------------ *)
(* Sending *)

let send_echo c inst digest =
  if not (has inst sent_echo_bit) then begin
    set inst sent_echo_bit;
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
  if not (has inst sent_ready_bit) then begin
    set inst sent_ready_bit;
    trace c inst Trace.Ready;
    Net.broadcast c.net ~src:c.me
      (c.ctx.ready ~sender:inst.sender ~round:inst.round digest ~signer:c.me)
  end

let agree c inst digest =
  if not (has inst agreed_bit) then trace c inst Trace.Cert;
  set inst agreed_bit;
  inst.agreed <- digest

let restore inst digest =
  set inst (delivered_bit lor agreed_bit lor sent_echo_bit lor sent_cert_bit);
  inst.agreed <- digest

(* ------------------------------------------------------------------ *)
(* Receiving *)

(* Signed mode: 2f+1 ECHOs, of which >= the clan threshold from the
   sender's clan, form a certificate; the sender's relayers broadcast it.
   Unsigned mode: the same quorum sends READY. *)
let echo_quorum c inst digest (v : votes) =
  if c.signed then begin
    set inst sent_cert_bit;
    if c.ctx.relays_cert ~sender:inst.sender then begin
      let agg = Keychain.to_aggregate v.acc ~signers:(Bitset.copy v.voters) in
      if c.ctx.keep_certs then (side inst).cert <- Some agg;
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
   instance's vote record for [digest], or [no_votes]; a fresh one is
   attached only once its first message checks out. [found] is the
   instance or [c.absent]. *)
let known_echo_votes c found digest =
  if found == c.absent then no_votes else echo_votes found digest

let attach c found ~sender ~round digest known v =
  let inst = if found == c.absent then get c ~sender ~round else found in
  if known == no_votes then add_echo_votes inst digest v;
  inst

let verified c v ~signer signature =
  (not c.signed) || Keychain.verify_hashed c.keychain ~signer v.signing_h signature

(* A verified echo for [digest], whose votes are [v] ([known] is
   [no_votes] when [v] is fresh). *)
let count_echo c inst digest known v ~signer signature =
  if known == no_votes then add_echo_votes inst digest v;
  if not (Bitset.add v.voters signer) then None
  else begin
    let sender = inst.sender in
    if c.ctx.in_clan ~sender signer then v.clan_votes <- v.clan_votes + 1;
    if c.signed then Keychain.accumulate v.acc signature;
    if
      Bitset.cardinal v.voters >= c.quorum
      && v.clan_votes >= c.ctx.clan_threshold ~sender
    then echo_quorum c inst digest v
    else None
  end

(* An accepted echo into a known instance and digest allocates nothing:
   the instance is a cached-row index and the share is folded in. *)
let on_echo c ~sender ~round digest ~signer signature =
  let inst = lookup c ~sender ~round in
  (* Once this node has formed its certificate every later echo is dead
     weight: the threshold branch is the only consumer of the vote
     bookkeeping, and pull candidates are snapshotted at certification.
     Skipping the ~n - 2f-1 post-certificate echoes (verify included)
     changes no message and no observable state. *)
  if sent_cert inst then None
  else if inst != c.absent then begin
    let known = echo_votes inst digest in
    let v = votes c known ~sender ~round digest in
    if verified c v ~signer signature then count_echo c inst digest known v ~signer signature
    else None
  end
  else if not (in_range c sender) then None
  else begin
    let v = votes c no_votes ~sender ~round digest in
    if verified c v ~signer signature then
      count_echo c (get c ~sender ~round) digest no_votes v ~signer signature
    else None
  end

(* Unsigned mode: f+1 READYs amplify, 2f+1 settle the digest. *)
let on_ready c ~sender ~round digest ~signer =
  if c.signed || not (in_range c sender) then None
  else begin
    let inst = get c ~sender ~round in
    let known = find_votes inst.side.readies digest in
    let v = votes c known ~sender ~round digest in
    if known == no_votes then begin
      let s = side inst in
      s.readies <- add_votes s.readies digest v
    end;
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

(* A certificate's checks, given the hash of its echo signing string:
   2f+1 signers, the clan threshold, and the aggregate verified. *)
let cert_checks c ~sender agg hash =
  let signers = Keychain.signers agg in
  let threshold = c.ctx.clan_threshold ~sender in
  Bitset.cardinal signers >= c.quorum
  && (threshold = 0 || clan_count c ~sender signers >= threshold)
  && Keychain.verify_aggregate_hashed c.keychain ~hash agg

let cert_valid c ~sender ~round digest agg =
  c.signed && in_range c sender
  &&
  let known = known_echo_votes c (lookup c ~sender ~round) digest in
  cert_checks c ~sender agg (signing_hash c known ~sender ~round digest)

let on_echo_cert c ~sender ~round digest agg =
  if (not c.signed) || not (in_range c sender) then None
  else
    let found = lookup c ~sender ~round in
    if is_delivered found then None
    else begin
      let known = known_echo_votes c found digest in
      let v = votes c known ~sender ~round digest in
      if not (cert_checks c ~sender agg v.signing_h) then None
      else begin
        let inst = attach c found ~sender ~round digest known v in
        if c.ctx.keep_certs then (side inst).cert <- Some agg;
        Some inst
      end
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
          let ledger =
            match inst.side.served with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 4 in
                (side inst).served <- Some t;
                t
          in
          let served = Option.value ~default:0 (Hashtbl.find_opt ledger src) in
          if served < c.budget then begin
            Hashtbl.replace ledger src (served + 1);
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
          (c.retry * (1 lsl Int.min cycles 4))
          (fun () -> restart (cycles + 1))
