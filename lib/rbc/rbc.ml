open Clanbft_crypto
module Bitset = Clanbft_util.Bitset
module Core = Rbc_core
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Obs = Clanbft_obs.Obs
module Metrics = Clanbft_obs.Metrics
module Trace = Clanbft_obs.Trace
module Prof = Clanbft_obs.Prof

let sec_val = Prof.section "rbc.val"
let sec_echo = Prof.section "rbc.echo"
let sec_ready = Prof.section "rbc.ready"
let sec_cert = Prof.section "rbc.cert"

type protocol = Bracha | Signed_two_round | Tribe_bracha | Tribe_signed

let protocol_name = function
  | Bracha -> "bracha"
  | Signed_two_round -> "signed-2round"
  | Tribe_bracha -> "tribe-bracha"
  | Tribe_signed -> "tribe-signed"

let is_tribe = function
  | Tribe_bracha | Tribe_signed -> true
  | Bracha | Signed_two_round -> false

let is_signed = function
  | Signed_two_round | Tribe_signed -> true
  | Bracha | Tribe_bracha -> false

type msg =
  | Val of { sender : int; round : int; value : string }
  | Val_digest of { sender : int; round : int; digest : Digest32.t }
  | Echo of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Ready of {
      sender : int;
      round : int;
      digest : Digest32.t;
      signer : int;
      signature : Keychain.signature option;
    }
  | Echo_cert of {
      sender : int;
      round : int;
      digest : Digest32.t;
      agg : Keychain.aggregate;
    }
  | Pull_request of { sender : int; round : int }
  | Pull_reply of { sender : int; round : int; value : string }
  | Sync_request of { sender : int; round : int }

let msg_size ~n m =
  let sig_opt = function None -> 0 | Some _ -> Keychain.signature_size in
  match m with
  | Val { value; _ } -> 1 + 4 + 4 + 4 + String.length value
  | Val_digest _ -> 1 + 4 + 4 + Digest32.size
  | Echo { signature; _ } | Ready { signature; _ } ->
      1 + 4 + 4 + Digest32.size + 4 + sig_opt signature
  | Echo_cert _ ->
      1 + 4 + 4 + Digest32.size + Keychain.signature_size + ((n + 7) / 8)
  | Pull_request _ -> 1 + 4 + 4
  | Pull_reply { value; _ } -> 1 + 4 + 4 + 4 + String.length value
  | Sync_request _ -> 1 + 4 + 4

let msg_tag = function
  | Val _ -> "val"
  | Val_digest _ -> "val_digest"
  | Echo _ -> "echo"
  | Ready _ -> "ready"
  | Echo_cert _ -> "echo_cert"
  | Pull_request _ -> "pull_request"
  | Pull_reply _ -> "pull_reply"
  | Sync_request _ -> "sync_request"

let msg_round = function
  | Val { round; _ }
  | Val_digest { round; _ }
  | Echo { round; _ }
  | Ready { round; _ }
  | Echo_cert { round; _ }
  | Pull_request { round; _ }
  | Pull_reply { round; _ }
  | Sync_request { round; _ } ->
      Some round

let echo_signing_string ~sender ~round digest =
  Printf.sprintf "rbc-echo|%d|%d|%s" sender round (Digest32.to_raw digest)

type outcome = Value of string | Digest_only of Digest32.t

(* This adapter's side of an instance: the value and what was delivered. *)
type payload = {
  mutable value : string option; (* payload received so far *)
  mutable outcome : outcome option;
  mutable pulling : bool;
}

type inst = payload Core.inst

type node = {
  me : int;
  n : int;
  protocol : protocol;
  clan : Bitset.t option; (* None for non-tribe protocols *)
  net : msg Net.t;
  core : (payload, msg) Core.t;
  on_deliver : sender:int -> round:int -> outcome -> unit;
}

(* A plain match: [Option.fold] would build a closure per echo. *)
let clan_mem clan i = match clan with None -> true | Some c -> Bitset.mem c i
let in_clan t i = clan_mem t.clan i

(* Does this node eventually hold the full value? Clan members do; in the
   non-tribe protocols everyone does. *)
let entitled t = in_clan t t.me

(* One clan for every sender; every node relays its certificates and keeps
   them to answer [Sync_request]s. *)
let context ~clan ~clan_quorum =
  {
    Core.fresh = (fun () -> { value = None; outcome = None; pulling = false });
    signing = echo_signing_string;
    in_clan = (fun ~sender:_ i -> clan_mem clan i);
    clan_threshold = (fun ~sender:_ -> clan_quorum);
    relays_cert = (fun ~sender:_ -> true);
    keep_certs = true;
    echo =
      (fun ~sender ~round digest ~signer signature ->
        Echo { sender; round; digest; signer; signature });
    (* READY only exists in the Bracha-style protocols, which are
       signature-free. *)
    ready =
      (fun ~sender ~round digest ~signer ->
        Ready { sender; round; digest; signer; signature = None });
    echo_cert =
      (fun ~sender ~round digest agg ~clan_echoes:_ ->
        Echo_cert { sender; round; digest; agg });
  }

(* One pull request per peer every [pull_retry]; at most [pull_budget]
   pulls served per (instance, peer). *)
let pull_retry = Clanbft_sim.Time.ms 200.
let pull_budget = 8

let rec create ~me ~n ?f ?clan ~protocol ~engine ~net ~keychain
    ?(obs = Obs.disabled) ~on_deliver () =
  let f = match f with Some f -> f | None -> (n - 1) / 3 in
  if f < 0 || (3 * f) + 1 > n then invalid_arg "Rbc.create: need n >= 3f+1";
  let clan, clan_quorum =
    match (is_tribe protocol, clan) with
    | false, _ -> (None, 0)
    | true, None -> invalid_arg "Rbc.create: tribe protocol needs a clan"
    | true, Some members ->
        let set = Bitset.create n in
        Array.iter (fun i -> ignore (Bitset.add set i)) members;
        let nc = Bitset.cardinal set in
        let fc = ((nc + 1) / 2) - 1 in
        (Some set, fc + 1)
  in
  let core =
    Core.create ~me ~n ~f ~signed:(is_signed protocol) ~engine ~net ~keychain
      ~retry:pull_retry ~budget:pull_budget ~trace:obs.Obs.trace
      ~pull_retries:
        (Metrics.counter obs.Obs.metrics
           ~labels:[ ("node", string_of_int me) ]
           "rbc_pull_retries")
      (context ~clan ~clan_quorum)
  in
  let t = { me; n; protocol; clan; net; core; on_deliver } in
  Net.set_handler net me (fun ~src m -> handle t ~src m);
  t

and deliver t (inst : inst) outcome =
  if not inst.delivered then begin
    inst.delivered <- true;
    inst.ext.outcome <- Some outcome;
    Core.trace t.core inst Trace.Deliver;
    t.on_deliver ~sender:inst.sender ~round:inst.round outcome
  end

and start_pull t (inst : inst) digest =
  if (not inst.ext.pulling) && not inst.delivered then begin
    inst.ext.pulling <- true;
    (* Candidates, in decreasing order of confidence: parties that ECHOed
       the agreed digest (clan members first — whp they include an honest
       value holder), then READY voters (a node that delivered via 2f+1
       READYs may never have seen a single ECHO for this digest), and
       finally every other clan member — totality guarantees at least one
       honest clan member holds the value once anyone delivered. *)
    let seen = Bitset.create t.n in
    let keep i = i <> t.me && Bitset.add seen i in
    let clan_first l = List.partition (in_clan t) (List.filter keep l) in
    let echo_clan, echo_rest = clan_first (Core.echo_voters inst digest) in
    let ready_clan, ready_rest = clan_first (Core.ready_voters inst digest) in
    let clan_rest =
      List.filter (fun i -> in_clan t i && keep i) (List.init t.n Fun.id)
    in
    let ring = echo_clan @ echo_rest @ ready_clan @ ready_rest @ clan_rest in
    (* An empty ring means nobody but us could ever hold the value. The
       first sweep counts as cycle 1, so the first backoff is 2 x retry. *)
    if ring <> [] then begin
      let request = Pull_request { sender = inst.sender; round = inst.round } in
      let live () = not inst.delivered in
      let rec go cycles = Core.sweep t.core inst ~live ~request ~cycles ~restart:go ring in
      go 1
    end
  end

and try_deliver t (inst : inst) digest =
  if not inst.delivered then begin
    Core.agree t.core inst digest;
    if entitled t then begin
      match inst.ext.value with
      | Some v when Digest32.equal (Digest32.hash_string v) digest ->
          deliver t inst (Value v)
      | _ ->
          (* Either never got the value or got an equivocator's other
             value: fetch the agreed one off the critical path. *)
          inst.ext.value <- None;
          start_pull t inst digest
    end
    else deliver t inst (Digest_only digest)
  end

and handle_val t (inst : inst) value =
  if is_tribe t.protocol && not (in_clan t t.me) then
    (* Non-clan parties play the digest-only role even when a (Byzantine)
       sender ships them the full payload: storing an unverifiable value
       would let us serve equivocated payloads to pulling clan members. *)
    handle_val_digest t inst (Digest32.hash_string value)
  else begin
    (* Only the first VAL from the sender counts (non-equivocation is then
       enforced by the quorum rules). *)
    if inst.ext.value = None && not inst.delivered then
      inst.ext.value <- Some value;
    (* Clan members echo only after receiving the value itself. *)
    match inst.ext.value with
    | Some v -> Core.send_echo t.core inst (Digest32.hash_string v)
    | None -> ()
  end

and handle_val_digest t inst digest =
  (* Only meaningful for parties outside the clan in the tribe protocols:
     they echo on the digest alone. Clan members and non-tribe protocols
     insist on the full value. *)
  if is_tribe t.protocol && not (in_clan t t.me) then
    Core.send_echo t.core inst digest

and handle_sync_request t ~src (inst : inst) =
  (* A late joiner (e.g. a recovered crash) asks peers to re-prove an old
     instance. Only delivered instances answer: the signed protocols
     resend the stored ECHO certificate (one message re-completes the
     requester); the Bracha family resends this node's READY — totality
     gives 2f+1 delivered peers, so the requester re-forms a READY quorum
     from the responses alone. *)
  match (inst.delivered, inst.agreed) with
  | true, Some digest ->
      let sender = inst.sender and round = inst.round in
      if is_signed t.protocol then (
        match inst.cert with
        | Some agg ->
            Net.send t.net ~src:t.me ~dst:src
              (Echo_cert { sender; round; digest; agg })
        | None -> ())
      else
        Net.send t.net ~src:t.me ~dst:src
          (Ready { sender; round; digest; signer = t.me; signature = None })
  | _ -> ()

and handle_pull_reply t ~value (inst : inst) =
  if (not inst.delivered) && entitled t then
    match inst.agreed with
    | Some d when Digest32.equal (Digest32.hash_string value) d ->
        inst.ext.value <- Some value;
        deliver t inst (Value value)
    | _ -> ()

(* A receive function's result: the instance whose quorum or certificate
   just completed, if any. Top-level, so handling a message builds no
   closure. *)
and settle t found digest =
  match found with Some inst -> try_deliver t inst digest | None -> ()

and handle t ~src m =
  match m with
  | Val { sender; round; _ } | Val_digest { sender; round; _ } ->
      (* The VAL must come from its claimed sender (authenticated
         channels); anything else is discarded. *)
      if src = sender then begin
        Prof.enter sec_val;
        let inst = Core.get t.core ~sender ~round in
        Core.trace t.core inst Trace.Val;
        (match m with
        | Val { value; _ } -> handle_val t inst value
        | Val_digest { digest; _ } -> handle_val_digest t inst digest
        | _ -> ());
        Prof.leave sec_val
      end
  | Echo { sender; round; digest; signer; signature } ->
      if src = signer then begin
        Prof.enter sec_echo;
        (match signature with
        | None when is_signed t.protocol -> ()
        | _ ->
            settle t
              (Core.on_echo t.core ~sender ~round digest ~signer
                 (Option.value signature ~default:Keychain.forge))
              digest);
        Prof.leave sec_echo
      end
  | Ready { sender; round; digest; signer; signature = _ } ->
      if src = signer then begin
        Prof.enter sec_ready;
        settle t (Core.on_ready t.core ~sender ~round digest ~signer) digest;
        Prof.leave sec_ready
      end
  | Echo_cert { sender; round; digest; agg } ->
      Prof.enter sec_cert;
      settle t (Core.on_echo_cert t.core ~sender ~round digest agg) digest;
      Prof.leave sec_cert
  | Pull_request { sender; round } ->
      Core.serve t.core ~sender ~round ~src (fun inst ->
          Option.map (fun value -> Pull_reply { sender; round; value }) inst.ext.value)
  | Pull_reply { sender; round; value } ->
      Option.iter (handle_pull_reply t ~value) (Core.find t.core ~sender ~round)
  | Sync_request { sender; round } ->
      Option.iter (handle_sync_request t ~src) (Core.find t.core ~sender ~round)

let request_sync t ~sender ~round =
  if not (Core.get t.core ~sender ~round).delivered then
    Net.broadcast t.net ~src:t.me (Sync_request { sender; round })

let broadcast t ~round value =
  let inst = Core.get t.core ~sender:t.me ~round in
  if inst.ext.value <> None then invalid_arg "Rbc.broadcast: already broadcast";
  inst.ext.value <- Some value;
  Core.trace t.core inst Trace.Propose;
  let digest = Digest32.hash_string value in
  if is_tribe t.protocol then
    Net.broadcast_split t.net ~src:t.me ~member:(in_clan t)
      (Val { sender = t.me; round; value })
      (Val_digest { sender = t.me; round; digest })
  else Net.broadcast t.net ~src:t.me (Val { sender = t.me; round; value })

let delivered t ~sender ~round =
  Option.bind (Core.find t.core ~sender ~round) (fun inst -> inst.ext.outcome)

let agreed t ~sender ~round =
  Option.bind (Core.find t.core ~sender ~round) (fun inst -> inst.agreed)

let pulling t ~sender ~round =
  match Core.find t.core ~sender ~round with
  | None -> false
  | Some inst -> inst.ext.pulling && not inst.delivered

let footprint t = Core.footprint t.core
