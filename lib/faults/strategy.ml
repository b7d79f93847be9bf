open Clanbft_types
open Clanbft_crypto
module Engine = Clanbft_sim.Engine
module Net = Clanbft_sim.Net
module Time = Clanbft_sim.Time
module Obs = Clanbft_obs.Obs
module Trace = Clanbft_obs.Trace

type kind =
  | Equivocate
  | Censor of int
  | Grief of float
  | Sync_storm of int
  | Reorder of Time.span
  | Silent
  | Split
  | Withhold
  | Collude

type spec = { node : int; kind : kind }

let kind_name = function
  | Equivocate -> "equivocate"
  | Censor _ -> "censor"
  | Grief _ -> "grief"
  | Sync_storm _ -> "sync_storm"
  | Reorder _ -> "reorder"
  | Silent -> "silent"
  | Split -> "split"
  | Withhold -> "withhold"
  | Collude -> "collude"

let to_string { node; kind } =
  match kind with
  | Censor v -> Printf.sprintf "%d@censor:%d" node v
  | Grief f -> Printf.sprintf "%d@grief:%g" node f
  | Sync_storm b -> Printf.sprintf "%d@storm:%d" node b
  | Reorder s -> Printf.sprintf "%d@reorder:%dus" node s
  | Equivocate | Silent | Split | Withhold | Collude ->
      Printf.sprintf "%d@%s" node (kind_name kind)

type wire = [ `Rbc | `Sailfish ]

(* The wire a kind is confined to; [None] for a kind both wires run. *)
let wire_only = function
  | Equivocate -> None
  | Censor _ | Grief _ | Sync_storm _ | Reorder _ -> Some `Sailfish
  | Silent | Split | Withhold | Collude -> Some `Rbc

(* ------------------------------------------------------------------ *)
(* "NODE@STRATEGY[:ARG]" — same '@'-then-':' shape as restart specs. *)

let ( let* ) r f = Result.bind r f

let of_string s =
  let s = String.trim s in
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "expected node@strategy[:arg], got %S" s)
  | Some i -> (
      let* node =
        match int_of_string_opt (String.sub s 0 i) with
        | Some x when x >= 0 -> Ok x
        | Some _ -> Error "strategy: negative node id"
        | None -> Error (Printf.sprintf "bad node id in %S" s)
      in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let name, arg =
        match String.index_opt rest ':' with
        | None -> (rest, None)
        | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
      in
      let int_arg ~default =
        match arg with
        | None -> Ok default
        | Some a -> (
            match int_of_string_opt a with
            | Some x when x > 0 -> Ok x
            | _ -> Error (Printf.sprintf "bad %s argument %S" name a))
      in
      let bare kind =
        match arg with
        | None -> Ok { node; kind }
        | Some _ -> Error (name ^ " takes no argument")
      in
      match name with
      | "equivocate" -> bare Equivocate
      | "silent" -> bare Silent
      | "split" -> bare Split
      | "withhold" -> bare Withhold
      | "collude" -> bare Collude
      | "censor" -> (
          match arg with
          | None -> Error "censor needs a victim node id"
          | Some a -> (
              match int_of_string_opt a with
              | Some v when v >= 0 -> Ok { node; kind = Censor v }
              | _ -> Error (Printf.sprintf "bad censor victim %S" a)))
      | "grief" -> (
          match arg with
          | None -> Ok { node; kind = Grief 0.8 }
          | Some a -> (
              match float_of_string_opt a with
              | Some f when f > 0.0 && f < 1.0 -> Ok { node; kind = Grief f }
              | _ -> Error "grief fraction must be in (0, 1)"))
      | "storm" | "sync-storm" | "sync_storm" ->
          let* burst = int_arg ~default:32 in
          Ok { node; kind = Sync_storm burst }
      | "reorder" -> (
          match arg with
          | None -> Ok { node; kind = Reorder (Time.ms 2.) }
          | Some a -> (
              (* Reuse the fault DSL's time grammar (us/ms/s suffixes). *)
              match Faults.parse_time a with
              | Ok s when s > 0 -> Ok { node; kind = Reorder s }
              | Ok _ -> Error "reorder slack must be positive"
              | Error e -> Error e))
      | _ -> Error (Printf.sprintf "unknown strategy %S" name))

let of_specs specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* x =
          Result.map_error
            (fun e -> Printf.sprintf "%s (in %S)" e s)
            (of_string s)
        in
        go (x :: acc) rest
  in
  go [] specs

(* ------------------------------------------------------------------ *)
(* Engine *)

(* Per-round forging caches, so one round's interceptions agree on the
   crafted variant no matter how many per-destination copies fly. *)
type equivocate_state = {
  eq_decoys : int;
      (* how many in-clan recipients get the decoy: capped so the real
         digest still clears both the global echo quorum and the clan echo
         threshold — the split must stress the pull path, not silence the
         slot outright *)
  (* round -> (decoy vertex, decoy block, signature); None = unforgeable
     (no block / empty block) *)
  eq_forged : (int, (Vertex.t * Block.t * Keychain.signature) option) Hashtbl.t;
  eq_handed : (int, int ref) Hashtbl.t; (* round -> in-clan copies seen *)
}

type censor_state = {
  (* round -> censored (vertex, signature); None = guards said skip *)
  cn_forged : (int, (Vertex.t * Keychain.signature) option) Hashtbl.t;
}

type node_state =
  | S_equivocate of equivocate_state
  | S_censor of int * censor_state
  | S_grief of Time.span
  | S_storm of int
  | S_reorder of Time.span * int ref (* slack, held-message parity counter *)

let validate ~n ~wire specs =
  let problem seen ({ node; kind } as spec) =
    if node < 0 || node >= n then
      Some (Printf.sprintf "Strategy: bad node id %d for n=%d" node n)
    else if List.mem node seen then
      Some (Printf.sprintf "Strategy: node %d occupied twice" node)
    else
      match (kind, wire_only kind) with
      | _, Some w when w <> wire ->
          Some
            (Printf.sprintf "Strategy: %s runs on the %s wire only" (to_string spec)
               (match w with `Rbc -> "RBC" | `Sailfish -> "Sailfish"))
      (* The RBC wire opens instances from node 0 only (the rbc command
         and the checker), so a sender kind anywhere else would never act. *)
      | (Split | Withhold | Equivocate), _ when wire = `Rbc && node <> 0 ->
          Some
            (Printf.sprintf "Strategy: %s is a sender kind; the RBC sender is node 0"
               (to_string spec))
      | Censor v, _ when v < 0 || v >= n || v = node ->
          Some (Printf.sprintf "Strategy: bad censor victim %d for node %d" v node)
      | _ -> None
  in
  let rec go seen = function
    | [] -> Ok ()
    | spec :: rest -> (
        match problem seen spec with
        | Some e -> Error e
        | None -> go (spec.node :: seen) rest)
  in
  go [] specs

let install ~engine ~net ~keychain ~config ~round_timeout
    ?(obs = Obs.disabled) specs =
  if specs <> [] then begin
    let n = Config.n config in
    Result.iter_error invalid_arg (validate ~n ~wire:`Sailfish specs);
    let prev = Net.filter net in
    let tr = obs.Obs.trace in
    let fire ~action ~kind ~src ~dst =
      if Trace.enabled tr then
        Trace.emit tr ~ts:(Engine.now engine)
          (Trace.Fault_fire { rule = -2; action; kind; src; dst })
    in
    (* A crafted or held copy was already ruled on by this layer; offer it
       only to the layers below (network fault rules), then bypass the
       filter chain entirely on the way out. *)
    let inject ~src ~dst msg =
      if prev ~src ~dst msg then Net.send_unfiltered net ~src ~dst msg
    in
    let f = (n - 1) / 3 in
    let state = Array.make n None in
    List.iter
      (fun { node; kind } ->
        let s =
          match kind with
          | Equivocate ->
              let decoys =
                match Config.payload_clan config ~proposer:node with
                | None -> 0
                | Some members ->
                    let nc = Array.length members in
                    Int.min f (nc - Config.clan_echo_threshold config ~proposer:node)
              in
              S_equivocate
                {
                  eq_decoys = Int.max 0 decoys;
                  eq_forged = Hashtbl.create 64;
                  eq_handed = Hashtbl.create 64;
                }
          | Censor v -> S_censor (v, { cn_forged = Hashtbl.create 64 })
          | Grief frac ->
              S_grief (int_of_float (frac *. float_of_int round_timeout))
          | Sync_storm burst -> S_storm burst
          | Reorder slack -> S_reorder (slack, ref 0)
          (* RBC-wire kinds: refused by [validate] above. *)
          | Silent | Split | Withhold | Collude -> assert false
        in
        state.(node) <- Some s)
      specs;
    let sign_val me v = Keychain.sign keychain ~signer:me (Msg.val_signing_string v) in
    (* Decoy variant of my own proposal: same edges and certificates, the
       block minus its last transaction — a different block digest, hence a
       different vertex digest, under a perfectly valid signature. *)
    let forge_decoy me (vertex : Vertex.t) (block : Block.t) =
      if Block.txn_count block = 0 then None
      else
        let txns = Block.txns block in
        let txns = Array.sub txns 0 (Array.length txns - 1) in
        let db = Block.make ~proposer:me ~round:vertex.round ~txns in
        let dv =
          Vertex.make ~round:vertex.round ~source:vertex.source
            ~block_digest:(Block.digest db) ~strong_edges:vertex.strong_edges
            ~weak_edges:vertex.weak_edges ~compact:vertex.compact
            ?nvc:vertex.nvc ?tc:vertex.tc ()
        in
        Some (dv, db, sign_val me dv)
    in
    (* Censored variant: drop every edge referencing the victim, within the
       validity envelope (never the previous-leader edge; dense mode keeps
       >= quorum strong edges; some strong edge always remains). *)
    let forge_censored me victim (vertex : Vertex.t) =
      let refs_victim (e : Vertex.vref) = e.source = victim in
      if
        vertex.round = 0
        || not
             (Array.exists refs_victim vertex.strong_edges
             || Array.exists refs_victim vertex.weak_edges)
      then None
      else if victim = Config.leader_of_round config (vertex.round - 1) then
        None
      else
        let strong =
          Array.of_list
            (List.filter
               (fun e -> not (refs_victim e))
               (Array.to_list vertex.strong_edges))
        in
        let ok =
          match Config.edge_policy config with
          | Config.Dense -> Array.length strong >= Config.quorum config
          | Config.Sparse _ -> Array.length strong >= 1
        in
        if not ok then None
        else
          let weak =
            Array.of_list
              (List.filter
                 (fun e -> not (refs_victim e))
                 (Array.to_list vertex.weak_edges))
          in
          let cv =
            Vertex.make ~round:vertex.round ~source:vertex.source
              ~block_digest:vertex.block_digest ~strong_edges:strong
              ~weak_edges:weak ~compact:vertex.compact ?nvc:vertex.nvc
              ?tc:vertex.tc ()
          in
          Some (cv, sign_val me cv)
    in
    Net.set_filter net (fun ~src ~dst msg ->
        (* Sync-storm vantage: every strategy node watches the whole tap for
           a recovering replica announcing itself, whoever it talks to. *)
        (match msg with
        | Msg.Sync_request _ when src <> dst ->
            Array.iteri
              (fun me s ->
                match s with
                | Some (S_storm burst) when me <> src && me <> dst ->
                    fire ~action:"sync_storm" ~kind:"sync_request" ~src:me
                      ~dst:src;
                    (* Injected off a fresh event so the burst never runs
                       inside another sender's fan-out iteration. *)
                    Engine.schedule_after engine 0 (fun () ->
                        for _ = 1 to burst do
                          inject ~src:me ~dst:src
                            (Msg.Sync_request { from_round = 0 })
                        done)
                | _ -> ())
              state
        | _ -> ());
        (* Worst-case delivery order within the latency envelope: a reorder
           node holds back every other message crossing its links — either
           direction — by the slack bound, inverting arrivals pairwise
           against the copies behind them. *)
        let reorder_hold =
          if src = dst then None
          else
            match state.(src) with
            | Some (S_reorder (slack, parity)) -> Some (slack, parity)
            | _ -> (
                match state.(dst) with
                | Some (S_reorder (slack, parity)) -> Some (slack, parity)
                | _ -> None)
        in
        match reorder_hold with
        | Some (slack, parity) ->
            incr parity;
            if !parity land 1 = 1 then begin
              fire ~action:"reorder" ~kind:(Msg.tag msg) ~src ~dst;
              Engine.schedule_after engine slack (fun () -> inject ~src ~dst msg);
              false
            end
            else prev ~src ~dst msg
        | None -> (
        match state.(src) with
        | None -> prev ~src ~dst msg
        | Some s -> (
            match (s, msg) with
            | ( S_equivocate st,
                Msg.Val { vertex; block = Some block; signature = _ } )
              when vertex.source = src && dst <> src ->
                let forged =
                  match Hashtbl.find_opt st.eq_forged vertex.round with
                  | Some f -> f
                  | None ->
                      let f = forge_decoy src vertex block in
                      Hashtbl.replace st.eq_forged vertex.round f;
                      f
                in
                (match forged with
                | None -> prev ~src ~dst msg
                | Some (dv, db, dsig) ->
                    (* Split inside the clan only: the first f value-entitled
                       recipients (id order — the propose fan-out) get the
                       decoy, everyone else the real digest, so the real copy
                       can still certify while decoy holders must detect the
                       mismatch and pull. Non-clan recipients see consistent
                       digests, keeping the equivocation invisible from
                       outside. *)
                    let handed =
                      match Hashtbl.find_opt st.eq_handed vertex.round with
                      | Some r -> r
                      | None ->
                          let r = ref 0 in
                          Hashtbl.replace st.eq_handed vertex.round r;
                          r
                    in
                    incr handed;
                    if !handed <= st.eq_decoys then begin
                      fire ~action:"equivocate" ~kind:"val" ~src ~dst;
                      inject ~src ~dst
                        (Msg.Val { vertex = dv; block = Some db; signature = dsig });
                      false
                    end
                    else prev ~src ~dst msg)
            | S_censor (victim, st), Msg.Val { vertex; block; signature = _ }
              when vertex.source = src ->
                let forged =
                  match Hashtbl.find_opt st.cn_forged vertex.round with
                  | Some x -> x
                  | None ->
                      let x = forge_censored src victim vertex in
                      Hashtbl.replace st.cn_forged vertex.round x;
                      x
                in
                (match forged with
                | None -> prev ~src ~dst msg
                | Some (cv, csig) ->
                    (* Every copy — the self copy included — carries the
                       censored variant, so the censor is consistent (no
                       equivocation) and merely refuses to reference the
                       victim's vertices. *)
                    fire ~action:"censor" ~kind:"val" ~src ~dst;
                    inject ~src ~dst
                      (Msg.Val { vertex = cv; block; signature = csig });
                    false)
            | S_censor (victim, _), Msg.Echo { source; _ }
              when source = victim ->
                (* Refuse to help certify the victim's slots. *)
                fire ~action:"censor" ~kind:"echo" ~src ~dst;
                false
            | S_censor (victim, _), Msg.Echo_cert { source; _ }
              when source = victim ->
                fire ~action:"censor" ~kind:"echo_cert" ~src ~dst;
                false
            | S_grief hold, Msg.Val { vertex; _ } when vertex.source = src ->
                (* Ride just inside the round timeout: every copy of my
                   proposal departs [hold] late. Rounds I lead stall the
                   whole tribe for almost the full timeout, yet never
                   actually trip it. *)
                fire ~action:"grief" ~kind:"val" ~src ~dst;
                Engine.schedule_after engine hold (fun () ->
                    inject ~src ~dst msg);
                false
            | _ -> prev ~src ~dst msg)))
  end
