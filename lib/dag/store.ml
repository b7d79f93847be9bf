open Clanbft_types
module Prof = Clanbft_obs.Prof

let sec_insert = Prof.section "dag.insert"
let sec_prune = Prof.section "dag.prune"
let sec_parents = Prof.section "dag.parents"

type t = {
  n : int;
  rounds : (int, Vertex.t option array) Hashtbl.t; (* round -> slot per source *)
  counts : (int, int ref) Hashtbl.t;
  mutable highest : int;
  mutable floor : int; (* rounds below this were pruned *)
  mutable size : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Store.create: n must be positive";
  { n; rounds = Hashtbl.create 64; counts = Hashtbl.create 64; highest = -1; floor = 0; size = 0 }

let n t = t.n

let slots t round =
  match Hashtbl.find_opt t.rounds round with
  | Some a -> a
  | None ->
      let a = Array.make t.n None in
      Hashtbl.replace t.rounds round a;
      a

let find t ~round ~source =
  if source < 0 || source >= t.n then None
  else
    match Hashtbl.find_opt t.rounds round with
    | None -> None
    | Some a -> a.(source)

let mem t ~round ~source = find t ~round ~source <> None

let find_ref t (r : Vertex.vref) =
  match find t ~round:r.round ~source:r.source with
  | Some v when Clanbft_crypto.Digest32.equal v.digest r.digest -> Some v
  | Some _ | None -> None

(* References below the GC floor count as satisfied: their subtree was
   already ordered and pruned. *)
let ref_satisfied t (r : Vertex.vref) = r.round < t.floor || find_ref t r <> None

(* Allocation-free insertion guard. Strong edges all target [v.round - 1],
   so the per-round count doubles as a missing-parent counter: an empty
   previous round (above the floor) fails every strong edge at once, and the
   slot array is resolved with a single table lookup instead of one per
   edge. Weak edges are rare and probed individually. *)
let parents_present t (v : Vertex.t) =
  Prof.enter sec_parents;
  let strong_ok =
    Array.length v.strong_edges = 0
    || v.round - 1 < t.floor
    ||
    match Hashtbl.find_opt t.rounds (v.round - 1) with
    | None -> false
    | Some a ->
        Array.for_all
          (fun (r : Vertex.vref) ->
            r.source >= 0 && r.source < t.n
            &&
            match a.(r.source) with
            | Some p -> Clanbft_crypto.Digest32.equal p.digest r.digest
            | None -> false)
          v.strong_edges
  in
  let ok = strong_ok && Array.for_all (ref_satisfied t) v.weak_edges in
  Prof.leave sec_parents;
  ok

let missing_parents t (v : Vertex.t) =
  Prof.enter sec_parents;
  let acc = ref [] in
  Vertex.iter_edges v (fun r -> if not (ref_satisfied t r) then acc := r :: !acc);
  let missing = List.rev !acc in
  Prof.leave sec_parents;
  missing

let add t (v : Vertex.t) =
  if v.round < t.floor then invalid_arg "Store.add: below pruned horizon";
  Prof.enter sec_insert;
  (match find t ~round:v.round ~source:v.source with
  | Some existing ->
      if not (Clanbft_crypto.Digest32.equal existing.digest v.digest) then begin
        Prof.leave sec_insert;
        invalid_arg "Store.add: conflicting vertex for an occupied slot"
      end
  | None ->
      if not (parents_present t v) then begin
        Prof.leave sec_insert;
        invalid_arg "Store.add: parent missing"
      end;
      (slots t v.round).(v.source) <- Some v;
      (match Hashtbl.find_opt t.counts v.round with
      | Some c -> incr c
      | None -> Hashtbl.replace t.counts v.round (ref 1));
      t.size <- t.size + 1;
      if v.round > t.highest then t.highest <- v.round);
  Prof.leave sec_insert

let vertices_at t round =
  match Hashtbl.find_opt t.rounds round with
  | None -> []
  | Some a ->
      Array.to_list a |> List.filter_map (fun x -> x)

let count_at t round =
  match Hashtbl.find_opt t.counts round with Some c -> !c | None -> 0

(* BFS down strong edges; rounds strictly decrease, so the frontier dies out
   once it passes the target round. *)
let strong_path t (from : Vertex.t) ~round ~source =
  if from.round = round && from.source = source then true
  else if round >= from.round then false
  else begin
    let visited = Hashtbl.create 32 in
    let rec go frontier =
      match frontier with
      | [] -> false
      | (v : Vertex.t) :: rest ->
          let hits = ref false in
          let next = ref rest in
          Array.iter
            (fun (e : Vertex.vref) ->
              if e.round = round && e.source = source then hits := true
              else if e.round > round && not (Hashtbl.mem visited (e.round, e.source))
              then begin
                Hashtbl.replace visited (e.round, e.source) ();
                match find_ref t e with
                | Some parent -> next := parent :: !next
                | None -> ()
              end)
            v.strong_edges;
          !hits || go !next
    in
    go [ from ]
  end

let causal_history t (v : Vertex.t) ~skip =
  let visited = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit (v : Vertex.t) =
    if not (Hashtbl.mem visited (v.round, v.source)) then begin
      Hashtbl.replace visited (v.round, v.source) ();
      if not (skip ~round:v.round ~source:v.source) then begin
        acc := v :: !acc;
        Vertex.iter_edges v (fun r ->
            match find_ref t r with Some p -> visit p | None -> ())
      end
    end
  in
  visit v;
  List.sort
    (fun (a : Vertex.t) (b : Vertex.t) ->
      Vertex.Id.compare (a.round, a.source) (b.round, b.source))
    !acc

let highest_round t = t.highest
let floor t = t.floor

let prune_below t ~round =
  if round > t.floor then begin
    Prof.enter sec_prune;
    (* Key-driven when the gap outnumbers the live rounds: after a long
       idle stretch or a snapshot join the floor can jump by millions of
       rounds while the store holds only a handful, so iterating the
       integer range would be O(gap). *)
    let gap = round - t.floor in
    let drop r =
      (match Hashtbl.find_opt t.counts r with
      | Some c -> t.size <- t.size - !c
      | None -> ());
      Hashtbl.remove t.rounds r;
      Hashtbl.remove t.counts r
    in
    if gap <= Hashtbl.length t.rounds + Hashtbl.length t.counts then
      for r = t.floor to round - 1 do
        drop r
      done
    else begin
      let doomed =
        Hashtbl.fold (fun r _ acc -> if r < round then r :: acc else acc)
          t.rounds []
      in
      List.iter drop doomed;
      (* [counts] keys mirror [rounds], but sweep defensively in case a
         future change lets them diverge. *)
      let doomed =
        Hashtbl.fold (fun r _ acc -> if r < round then r :: acc else acc)
          t.counts []
      in
      List.iter drop doomed
    end;
    t.floor <- round;
    Prof.leave sec_prune
  end

let size t = t.size
