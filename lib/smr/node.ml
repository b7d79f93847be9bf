open Clanbft_types
open Clanbft_crypto
module Sailfish = Clanbft_consensus.Sailfish

type t = {
  me : int;
  config : Config.t;
  mutable consensus : Sailfish.t option; (* set during construction *)
  mempool : Mempool.t;
  execution : Execution.t;
  persist : Persist.t option;
  exec_queue : Vertex.t Queue.t;
  executes : bool;
  on_txn_executed : (Transaction.t -> Digest32.t -> unit) option;
}

let me t = t.me
let consensus t = Option.get t.consensus
let execution t = t.execution
let mempool t = t.mempool
let submit t txn = Mempool.submit t.mempool txn
let executed_txns t = Execution.executed_txns t.execution

(* Drain the execution queue in order; stop at the first vertex whose block
   is still in flight (it is being pulled — §5's "execution lags
   consensus"). *)
let rec drain t =
  match Queue.peek_opt t.exec_queue with
  | None -> ()
  | Some (v : Vertex.t) ->
      let has_block = Digest32.equal v.block_digest Digest32.zero = false in
      if not has_block then begin
        (* Vertex-only proposal: nothing to execute. *)
        ignore (Queue.pop t.exec_queue);
        drain t
      end
      else if Config.in_payload_clan t.config ~proposer:v.source t.me then begin
        match Sailfish.block_of (consensus t) ~round:v.round ~source:v.source with
        | Some block ->
            (* Consensus stores only the certified vertex's block. *)
            assert (Digest32.equal (Block.digest block) v.block_digest);
            ignore (Queue.pop t.exec_queue);
            Execution.apply_block t.execution block;
            (match t.on_txn_executed with
            | None -> ()
            | Some callback ->
                Block.iter_txns block (fun txn ->
                    callback txn (Execution.response t.execution txn)));
            drain t
        | None -> () (* block still being fetched; resume on arrival *)
      end
      else begin
        (* Another clan's payload: fold the digest, keep the chain common. *)
        ignore (Queue.pop t.exec_queue);
        Execution.skip_block t.execution v.block_digest;
        drain t
      end

let on_commit_internal t external_hook ~leader vertices =
  (match external_hook with
  | Some hook -> hook ~leader vertices
  | None -> ());
  if t.executes then begin
    List.iter (fun v -> Queue.add v t.exec_queue) vertices;
    drain t
  end;
  match t.persist with
  | None -> ()
  | Some p ->
      let n = Config.n t.config in
      List.iter
        (fun v -> Persist.put p ~size:(Vertex.wire_size ~n v) ~on_durable:ignore)
        vertices

let on_block_internal t (b : Block.t) =
  (match t.persist with
  | None -> ()
  | Some p ->
      (* Journal the full block (recovery needs the payload back), plus the
         metadata-only state write the execution path always made. *)
      let size = Block.wire_size b in
      Persist.wal_append p ~size (Persist.Block b);
      Persist.put p ~size ~on_durable:ignore);
  if t.executes then drain t

(* WAL hooks: journal every RBC delivery before the consensus layer acts on
   it, and every own-proposal round before its VAL messages leave. Records
   are the values themselves, charged at their wire size. *)

let journal_deliver t external_hook v =
  (match t.persist with
  | None -> ()
  | Some p ->
      Persist.wal_append p
        ~size:(Vertex.wire_size ~n:(Config.n t.config) v)
        (Persist.Vertex v));
  Option.iter (fun hook -> hook v) external_hook

let journal_propose t ~round =
  match t.persist with
  | None -> ()
  | Some p -> Persist.wal_append p ~size:0 (Persist.Proposed round)

(* The paper's largest proposal. *)
let max_block_txns = 6000

let create ~me ~config ~keychain ~engine ~net ?params ?obs ?persist ?generate
    ?on_commit ?on_deliver ?on_txn_executed () =
  let t =
    {
      me;
      config;
      consensus = None;
      mempool = Mempool.create ();
      execution = Execution.create ();
      persist;
      exec_queue = Queue.create ();
      executes = Config.executes_blocks config me;
      on_txn_executed;
    }
  in
  let make_block ~round =
    match generate with
    | Some gen -> gen ~round
    | None -> Block.make ~proposer:me ~round ~txns:(Mempool.take t.mempool ~max:max_block_txns)
  in
  let consensus =
    Sailfish.create ~me ~config ~keychain ~engine ~net ?params ?obs ~make_block
      ~on_commit:(on_commit_internal t on_commit)
      ~on_block:(on_block_internal t)
      ~on_deliver:(journal_deliver t on_deliver)
      ~on_propose:(fun ~round -> journal_propose t ~round)
      ()
  in
  t.consensus <- Some consensus;
  t

let start t = Sailfish.start (consensus t)

let heap_roots ts =
  Sailfish.heap_roots (List.map consensus ts)
  @ [
      ("mempool", List.map (fun t -> Obj.repr t.mempool) ts);
      ( "wal",
        List.concat_map (fun t -> Option.fold ~none:[] ~some:Persist.heap_roots t.persist) ts );
    ]

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let stop t =
  Sailfish.halt (consensus t);
  Option.iter Persist.crash t.persist

let recover t =
  let c = consensus t in
  Option.iter
    (fun p ->
      (* Blocks first so replayed vertices find their payloads, then
         vertices in journal (= insertion) order, then proposal markers. *)
      Persist.wal_iter p (fun ~size:_ -> function
        | Persist.Block b -> Sailfish.replay_block c b
        | Vertex _ | Proposed _ -> ());
      Persist.wal_iter p (fun ~size:_ -> function
        | Persist.Vertex v -> Sailfish.replay_vertex c v
        | Block _ | Proposed _ -> ());
      Persist.wal_iter p (fun ~size:_ -> function
        | Persist.Proposed round -> Sailfish.note_proposed c ~round
        | Vertex _ | Block _ -> ()))
    t.persist;
  Sailfish.start_recovery c
