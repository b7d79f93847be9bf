open Clanbft_sim
open Clanbft_crypto
module Rng = Clanbft_util.Rng
module Obs = Clanbft_obs.Obs
module Rbc = Clanbft_rbc.Rbc
module Sailfish = Clanbft_consensus.Sailfish
module Config = Clanbft_types.Config
module Msg = Clanbft_types.Msg
module Vertex = Clanbft_types.Vertex
module Adversary = Clanbft_faults.Adversary
module Strategy = Clanbft_faults.Strategy
module Rbc_world = Clanbft_faults.Rbc_world

type violation = { invariant : string; detail : string }
type adversary = No_adversary | Equivocate | Collude | Strategy of Strategy.spec
type model = Rbc of Rbc.protocol | Sailfish

type spec = {
  model : model;
  n : int;
  rounds : int;
  adversary : adversary;
  late_join : bool;
  crashes : int;
  sparse_k : int option;
}

let default_spec =
  {
    model = Rbc Rbc.Tribe_bracha;
    n = 4;
    rounds = 2;
    adversary = No_adversary;
    late_join = false;
    crashes = 0;
    sparse_k = None;
  }

let model_to_string = function
  | Rbc Rbc.Bracha -> "rbc-bracha"
  | Rbc Rbc.Signed_two_round -> "rbc-signed"
  | Rbc Rbc.Tribe_bracha -> "rbc-tribe-bracha"
  | Rbc Rbc.Tribe_signed -> "rbc-tribe-signed"
  | Sailfish -> "sailfish"

let model_of_string = function
  | "rbc-bracha" -> Ok (Rbc Rbc.Bracha)
  | "rbc-signed" -> Ok (Rbc Rbc.Signed_two_round)
  | "rbc-tribe-bracha" -> Ok (Rbc Rbc.Tribe_bracha)
  | "rbc-tribe-signed" -> Ok (Rbc Rbc.Tribe_signed)
  | "sailfish" -> Ok Sailfish
  | s -> Error ("unknown model: " ^ s)

let adversary_to_string = function
  | No_adversary -> "none"
  | Equivocate -> "equivocate"
  | Collude -> "collude"
  | Strategy x -> Strategy.to_string x

let adversary_of_string = function
  | "none" -> Ok No_adversary
  | "equivocate" -> Ok Equivocate
  | "collude" -> Ok Collude
  | s when String.contains s '@' ->
      Result.map (fun x -> Strategy x) (Strategy.of_string s)
  | s ->
      Error (Printf.sprintf "expected none | equivocate | collude | NODE@STRATEGY[:ARG], got %S" s)

let spec_meta s =
  [
    ("model", model_to_string s.model);
    ("n", string_of_int s.n);
    ("rounds", string_of_int s.rounds);
    ("adversary", adversary_to_string s.adversary);
    ("late_join", string_of_bool s.late_join);
    ("crashes", string_of_int s.crashes);
  ]
  @ match s.sparse_k with
    | None -> []
    | Some k -> [ ("sparse_k", string_of_int k) ]

let spec_of_meta meta =
  let int_field name v k =
    match int_of_string_opt v with
    | Some i -> Ok (k i)
    | None -> Error (Printf.sprintf "bad %s: %s" name v)
  in
  List.fold_left
    (fun acc (key, v) ->
      Result.bind acc (fun s ->
          match key with
          | "model" ->
              Result.map (fun model -> { s with model }) (model_of_string v)
          | "n" -> int_field "n" v (fun n -> { s with n })
          | "rounds" -> int_field "rounds" v (fun rounds -> { s with rounds })
          | "adversary" ->
              Result.map
                (fun adversary -> { s with adversary })
                (adversary_of_string v)
          | "late_join" -> (
              match bool_of_string_opt v with
              | Some late_join -> Ok { s with late_join }
              | None -> Error ("bad late_join: " ^ v))
          | "crashes" -> int_field "crashes" v (fun crashes -> { s with crashes })
          | "sparse_k" ->
              int_field "sparse_k" v (fun k -> { s with sparse_k = Some k })
          | _ -> Ok s))
    (Ok default_spec) meta

type world = {
  spec : spec;
  engine : Engine.t;
  obs : Obs.t option;
  byz : int list;
  crashed_arr : bool array;
  joining : bool ref;
  mutable crashes_left : int;
  violation_ref : violation option ref;
  quiesce_hook : unit -> bool;
  wrapup_hook : unit -> violation option;
  state_hook : unit -> string;
}

let spec w = w.spec
let engine w = w.engine
let obs w = w.obs
let crashes_left w = w.crashes_left
let violation w = !(w.violation_ref)
let state_line w = w.state_hook ()
let on_quiescence w = w.quiesce_hook ()
let wrapup w = w.wrapup_hook ()

let crashed w i = w.crashed_arr.(i) || (!(w.joining) && i = w.spec.n - 1)

let crash_paused w =
  List.filter (fun i -> w.crashed_arr.(i)) (List.init w.spec.n Fun.id)

let byzantine w = w.byz

(* FNV-style fold used by the [state_line] fingerprints. *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

let byz_of = function
  | No_adversary -> []
  | Equivocate -> [ 0 ]
  | Collude -> [ 0; 1 ]
  (* A strategy node runs the full honest stack, so it is subject to every
     honest invariant and is no scheduling no-op: no Byzantine slot. *)
  | Strategy _ -> []

let strategies s = match s.adversary with Strategy x -> [ x ] | _ -> []

(* ------------------------------------------------------------------ *)
(* RBC worlds *)

(* What both models share: a jitter-free uniform topology for a net seeded
   with 1, a choice-mode engine and a first-violation sink. *)
let topology n = Topology.uniform ~n ~one_way_ms:10.0
let net_config = { Net.default_config with jitter = 0.0 }

let deploy ~trace =
  let engine = Engine.create () in
  Engine.set_choice_mode engine true;
  let obs = if trace then Some (Obs.create ()) else None in
  let violation_ref = ref None in
  let set_violation invariant detail =
    if !violation_ref = None then violation_ref := Some { invariant; detail }
  in
  (engine, obs, violation_ref, set_violation)

let build_rbc ~trace s protocol =
  let n = s.n in
  let byz = byz_of s.adversary in
  let engine, obs, violation_ref, set_violation = deploy ~trace in
  let clan =
    if Rbc.is_tribe protocol then
      Some (Array.init (max 3 ((n / 2) + 1)) Fun.id)
    else None
  in
  let crashed_arr = Array.make n false in
  let joining = ref s.late_join in
  (* agreement / validity, observed at the delivery hook *)
  let first : (int * int, int * Digest32.t) Hashtbl.t = Hashtbl.create 16 in
  let state_hash = ref 0 in
  let honest_sender = s.adversary = No_adversary in
  let on_deliver me ~sender ~round outcome =
    let d =
      match outcome with
      | Rbc.Value v -> Digest32.hash_string v
      | Rbc.Digest_only d -> d
    in
    state_hash :=
      mix !state_hash
        ((((me * 131) + sender) * 8191) + (round * 17) + Digest32.hash d);
    (match Hashtbl.find_opt first (sender, round) with
    | None -> Hashtbl.add first (sender, round) (me, d)
    | Some (other, d0) ->
        if not (Digest32.equal d d0) then
          set_violation "agreement"
            (Printf.sprintf
               "instance (%d,%d): node %d delivered %s but node %d delivered %s"
               sender round other (Digest32.short d0) me (Digest32.short d)));
    if
      honest_sender && sender = 0
      && not (Digest32.equal d (Digest32.hash_string (Printf.sprintf "val-%d" round)))
    then
      set_violation "validity"
        (Printf.sprintf "instance (0,%d): node %d delivered %s, not the broadcast value"
           round me (Digest32.short d))
  in
  let world =
    Rbc_world.create ~engine ?obs ~topology:(topology n) ~config:net_config ~seed:1L
      ?clan ~byzantine:byz ~on_deliver protocol
  in
  let net = world.net and nodes = world.nodes in
  (* honest echo/ready no-equivocation, observed from the wire *)
  let votes : (string * int * int * int, Digest32.t) Hashtbl.t =
    Hashtbl.create 64
  in
  let tap phase ~signer ~sender ~round digest =
    if not (List.mem signer byz) then
      match Hashtbl.find_opt votes (phase, signer, sender, round) with
      | None -> Hashtbl.add votes (phase, signer, sender, round) digest
      | Some d0 ->
          if not (Digest32.equal d0 digest) then
            set_violation "equivocation"
              (Printf.sprintf
                 "instance (%d,%d): honest node %d sent %ss for both %s and %s"
                 sender round signer phase (Digest32.short d0)
                 (Digest32.short digest))
  in
  Net.set_filter net (fun ~src:_ ~dst:_ msg ->
      (match msg with
      | Rbc.Echo { sender; round; digest; signer; _ } ->
          tap "echo" ~signer ~sender ~round digest
      | Rbc.Ready { sender; round; digest; signer; _ } ->
          tap "ready" ~signer ~sender ~round digest
      | _ -> ());
      true);
  (* initial traffic: honest broadcasts, or the adversary's split *)
  if honest_sender then
    for r = 1 to s.rounds do
      Rbc.broadcast (Option.get nodes.(0)) ~round:r (Printf.sprintf "val-%d" r)
    done
  else begin
    for r = 1 to s.rounds do
      let va = Printf.sprintf "A-%d" r and vb = Printf.sprintf "B-%d" r in
      let da = Digest32.hash_string va in
      (* The equivocating VAL split deals A, B, A, ... over ids 1..n-1, so
         recipient [dst] is fed A iff [(dst - 1) mod 2 = 0]. *)
      Adversary.run ~sender:0 ~n ?clan ~protocol ~net ~round:r
        (Adversary.Equivocate { values = [ va; vb ] });
      (* Every Byzantine signer votes for both digests. Under [Collude]
         the votes are targeted: each honest node only sees the votes for
         the value it was fed, so each half's quorum completes on its own
         digest (broadcasting both sets is actually safe — whichever digest
         first reaches an echo quorum at a node absorbs its single READY /
         certificate, on every ordering). *)
      let vote_dsts d =
        List.filter
          (fun dst ->
            s.adversary <> Collude
            || (not (List.mem dst byz))
               && ((dst - 1) mod 2 = 0) = Digest32.equal d da)
          (List.init n Fun.id)
      in
      List.iter
        (fun signer ->
          List.iter
            (fun d ->
              Adversary.vote ~keychain:world.keychain ~protocol ~net ~signer ~sender:0
                ~round:r ~dsts:(vote_dsts d) d)
            [ da; Digest32.hash_string vb ])
        byz
    done
  end;
  let quiesce_hook () =
    if !joining then begin
      joining := false;
      let j = n - 1 in
      List.iter
        (fun (c : Engine.choice) ->
          if c.dst = j then Engine.drop_choice engine c.id)
        (Engine.choices engine);
      (match nodes.(j) with
      | Some node ->
          for r = 1 to s.rounds do
            Rbc.request_sync node ~sender:0 ~round:r
          done
      | None -> ());
      true
    end
    else false
  in
  let wrapup_hook () =
    let live i =
      (not (List.mem i byz)) && (not crashed_arr.(i))
      && not (!joining && i = n - 1)
    in
    let viol = ref None in
    for r = 1 to s.rounds do
      if !viol = None then begin
        let status i = Rbc.delivered (Option.get nodes.(i)) ~sender:0 ~round:r in
        let live_ids = List.filter live (List.init n Fun.id) in
        match List.find_opt (fun i -> status i <> None) live_ids with
        | None -> ()
        | Some witness ->
            List.iter
              (fun i ->
                if !viol = None && status i = None then begin
                  let node = Option.get nodes.(i) in
                  let shape =
                    match Rbc.agreed node ~sender:0 ~round:r with
                    | Some _ when not (Rbc.pulling node ~sender:0 ~round:r) ->
                        " (certified digest, pull loop dead)"
                    | Some _ -> " (still pulling payload)"
                    | None -> ""
                  in
                  viol :=
                    Some
                      {
                        invariant = "totality";
                        detail =
                          Printf.sprintf
                            "instance (0,%d): node %d delivered but node %d did not%s"
                            r witness i shape;
                      }
                end)
              live_ids
      end
    done;
    !viol
  in
  let state_hook () =
    Printf.sprintf "deliveries=%d hash=%012x pool=%d"
      (List.length (Rbc_world.deliveries world))
      (!state_hash land 0xffffffffffff)
      (Engine.choice_count engine)
  in
  {
    spec = s;
    engine;
    obs;
    byz;
    crashed_arr;
    joining;
    crashes_left = s.crashes;
    violation_ref;
    quiesce_hook;
    wrapup_hook;
    state_hook;
  }

(* ------------------------------------------------------------------ *)
(* Sailfish worlds *)

let build_sailfish ~trace s =
  let n = s.n in
  let engine, obs, violation_ref, set_violation = deploy ~trace in
  let net =
    Net.create ~engine ~topology:(topology n) ~config:net_config
      ~size:(Msg.wire_size ~n) ~kind:Msg.tag ?obs ~rng:(Rng.create 1L) ()
  in
  let keychain = Keychain.create ~seed:11L ~n in
  (* The checker's edge-selection seed is fixed: schedules replayed from a
     saved spec must rebuild the exact same sparse DAG. *)
  let edge_policy =
    match s.sparse_k with
    | None -> Config.Dense
    | Some k -> Config.Sparse { k; seed = 1L }
  in
  let cfg = Config.make ~n ~edge_policy Config.Full in
  let crashed_arr = Array.make n false in
  (* prefix consistency: one canonical global commit order, O(1) per commit *)
  let canon : (int, int * int) Hashtbl.t = Hashtbl.create 256 in
  let canon_len = ref 0 in
  let pos = Array.make n 0 in
  let commits = ref 0 and state_hash = ref 0 in
  let on_commit me ~leader:_ ordered =
    List.iter
      (fun (v : Vertex.t) ->
        incr commits;
        state_hash := mix !state_hash (((me * 8191) + (v.round * 131)) + v.source);
        let p = pos.(me) in
        pos.(me) <- p + 1;
        if p < !canon_len then begin
          let r0, s0 = Hashtbl.find canon p in
          if (r0, s0) <> (v.round, v.source) then
            set_violation "prefix"
              (Printf.sprintf
                 "node %d committed (%d,%d) at position %d where the canonical order has (%d,%d)"
                 me v.round v.source p r0 s0)
        end
        else begin
          Hashtbl.replace canon p (v.round, v.source);
          incr canon_len
        end)
      ordered
  in
  (* one (round, source) slot must never resolve to two vertex digests *)
  let vtab : (int * int, Digest32.t) Hashtbl.t = Hashtbl.create 256 in
  let on_deliver me (v : Vertex.t) =
    match Hashtbl.find_opt vtab (v.round, v.source) with
    | None -> Hashtbl.add vtab (v.round, v.source) v.digest
    | Some d0 ->
        if not (Digest32.equal d0 v.digest) then
          set_violation "vertex-equivocation"
            (Printf.sprintf "slot (%d,%d): node %d accepted a second vertex digest"
               v.round v.source me)
  in
  (* A strategy adversary is installed exactly as [Runner.run] installs
     it: its held or crafted copies become calendar events and pooled
     deliveries the explorer schedules like any other. *)
  Strategy.install ~engine ~net ~keychain ~config:cfg
    ~round_timeout:Sailfish.default_params.Sailfish.round_timeout ?obs
    (strategies s);
  let nodes =
    Array.init n (fun me ->
        Sailfish.create ~me ~config:cfg ~keychain ~engine ~net ?obs
          ~make_block:(fun ~round:_ -> [||])
          ~on_commit:(on_commit me) ~on_deliver:(on_deliver me) ())
  in
  Array.iter Sailfish.start nodes;
  let state_hook () =
    Printf.sprintf "commits=%d hash=%012x pool=%d" !commits
      (!state_hash land 0xffffffffffff)
      (Engine.choice_count engine)
  in
  {
    spec = s;
    engine;
    obs;
    byz = [];
    crashed_arr;
    joining = ref false;
    crashes_left = s.crashes;
    violation_ref;
    quiesce_hook = (fun () -> false);
    wrapup_hook = (fun () -> None);
    state_hook;
  }

(* ------------------------------------------------------------------ *)
(* Scheduling surface *)

(* Deliveries to Byzantine "nodes" are no-ops (their handlers discard);
   discard them eagerly so they never bloat the choice pool or block
   quiescence. *)
let prune w =
  if w.byz <> [] then
    List.iter
      (fun (c : Engine.choice) ->
        if List.mem c.dst w.byz then Engine.drop_choice w.engine c.id)
      (Engine.choices w.engine)

let validate s =
  let sailfish = s.model = Sailfish in
  let problem =
    if s.n < 4 then Some "n must be at least 4 (= 3f+1)"
    else if s.rounds < 1 then Some "rounds must be positive"
    else if s.crashes < 0 then Some "negative crash budget"
    else if s.late_join && sailfish then Some "late_join is an RBC-only scenario"
    else if Option.fold ~none:false ~some:(fun k -> k < 1 || not sailfish) s.sparse_k
    then Some "sparse_k needs the Sailfish model and k >= 1"
    else if sailfish && (s.adversary = Equivocate || s.adversary = Collude) then
      Some (adversary_to_string s.adversary ^ " needs an RBC model")
    else if strategies s <> [] && not sailfish then
      Some "strategy adversaries need the Sailfish model"
    else None
  in
  match problem with
  | Some e -> Error ("Harness: " ^ e)
  | None -> Strategy.validate ~n:s.n (strategies s)

let build ?(trace = false) s =
  Result.iter_error invalid_arg (validate s);
  let w =
    match s.model with
    | Rbc protocol -> build_rbc ~trace s protocol
    | Sailfish -> build_sailfish ~trace s
  in
  prune w;
  w

let enabled_deliveries w =
  List.filter
    (fun (c : Engine.choice) -> not (crashed w c.dst))
    (Engine.choices w.engine)

let calendar_pending w = Engine.pending w.engine > 0

let quiescent w = enabled_deliveries w = [] && not (calendar_pending w)

let find_choice w id =
  List.find_opt (fun (c : Engine.choice) -> c.id = id) (Engine.choices w.engine)

let apply w (a : Schedule.action) =
  let res =
    match a with
    | Schedule.Deliver id -> (
        match find_choice w id with
        | None -> Error (Printf.sprintf "no pending delivery with id %d" id)
        | Some c ->
            if crashed w c.dst then
              Error (Printf.sprintf "delivery %d targets paused node %d" id c.dst)
            else begin
              Engine.fire_choice w.engine id;
              Ok ()
            end)
    | Schedule.Step ->
        if not (calendar_pending w) then Error "step with an empty calendar"
        else begin
          ignore (Engine.step w.engine);
          Ok ()
        end
    | Schedule.Crash i ->
        if i < 0 || i >= w.spec.n then Error (Printf.sprintf "crash: no node %d" i)
        else if List.mem i w.byz then
          Error (Printf.sprintf "crash: node %d is Byzantine" i)
        else if crashed w i then Error (Printf.sprintf "crash: node %d already paused" i)
        else if w.crashes_left <= 0 then Error "crash: budget exhausted"
        else begin
          w.crashed_arr.(i) <- true;
          w.crashes_left <- w.crashes_left - 1;
          Ok ()
        end
    | Schedule.Recover i ->
        if i < 0 || i >= w.spec.n || not w.crashed_arr.(i) then
          Error (Printf.sprintf "recover: node %d is not crash-paused" i)
        else begin
          w.crashed_arr.(i) <- false;
          Ok ()
        end
  in
  (match res with Ok () -> prune w | Error _ -> ());
  res

let describe w = function
  | Schedule.Deliver id -> (
      match find_choice w id with
      | Some c -> Printf.sprintf "%s %d->%d @%dus" c.tag c.src c.dst c.time
      | None -> "deliver ?")
  | Schedule.Step -> "timer"
  | Schedule.Crash i -> Printf.sprintf "pause node %d" i
  | Schedule.Recover i -> Printf.sprintf "resume node %d" i
