open Clanbft_types
module Prof = Clanbft_obs.Prof
module Round_rows = Clanbft_util.Round_rows

let sec_insert = Prof.section "dag.insert"
let sec_prune = Prof.section "dag.prune"
let sec_parents = Prof.section "dag.parents"

type t = {
  rounds : Vertex.t Round_rows.t; (* (round, source) -> vertex, with per-round counts *)
  mutable highest : int;
  mutable floor : int; (* rounds below this were pruned *)
}

let create ~n =
  if n <= 0 then invalid_arg "Store.create: n must be positive";
  { rounds = Round_rows.create ~n; highest = -1; floor = 0 }

let n t = Round_rows.n t.rounds

let find t ~round ~source = Round_rows.find t.rounds ~round ~source

let mem t ~round ~source = Option.is_some (find t ~round ~source)

let find_ref t (r : Vertex.vref) =
  match find t ~round:r.round ~source:r.source with
  | Some v when Clanbft_crypto.Digest32.equal v.digest r.digest -> Some v
  | Some _ | None -> None

(* References below the GC floor count as satisfied: their subtree was
   already ordered and pruned. *)
let ref_satisfied t (r : Vertex.vref) = r.round < t.floor || Option.is_some (find_ref t r)

(* Allocation-free insertion guard. Strong edges all target [v.round - 1],
   so an empty previous round (above the floor) fails every strong edge at
   once; otherwise each edge is one cached-row slot probe. Weak edges are
   rare and probed individually. *)
let parents_present t (v : Vertex.t) =
  Prof.enter sec_parents;
  let strong_ok =
    Array.length v.strong_edges = 0
    || v.round - 1 < t.floor
    || Round_rows.count t.rounds (v.round - 1) > 0
       && Array.for_all
            (fun (r : Vertex.vref) ->
              match find t ~round:(v.round - 1) ~source:r.source with
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
      Round_rows.set t.rounds ~round:v.round ~source:v.source v;
      if v.round > t.highest then t.highest <- v.round);
  Prof.leave sec_insert

let vertices_at t round =
  let acc = ref [] in
  Round_rows.iter_row t.rounds round (fun v -> acc := v :: !acc);
  List.rev !acc

let count_at t round = Round_rows.count t.rounds round

(* BFS down strong edges; rounds strictly decrease, so the frontier dies out
   once it passes the target round. *)
let strong_path t (from : Vertex.t) ~round ~source =
  if from.round = round && from.source = source then true
  else if round >= from.round then false
  else begin
    let visited = Round_rows.create ~n:(n t) in
    let rec go frontier =
      match frontier with
      | [] -> false
      | (v : Vertex.t) :: rest ->
          let hits = ref false in
          let next = ref rest in
          Array.iter
            (fun (e : Vertex.vref) ->
              if e.round = round && e.source = source then hits := true
              else if
                e.round > round
                && Option.is_none (Round_rows.find visited ~round:e.round ~source:e.source)
              then
                match find_ref t e with
                | Some parent ->
                    Round_rows.set visited ~round:e.round ~source:e.source ();
                    next := parent :: !next
                | None -> ())
            v.strong_edges;
          !hits || go !next
    in
    go [ from ]
  end

let causal_history t (v : Vertex.t) ~skip =
  let visited = Round_rows.create ~n:(n t) in
  let acc = ref [] in
  let rec visit (v : Vertex.t) =
    if Option.is_none (Round_rows.find visited ~round:v.round ~source:v.source) then begin
      Round_rows.set visited ~round:v.round ~source:v.source ();
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
    Round_rows.drop_below t.rounds round;
    t.floor <- round;
    Prof.leave sec_prune
  end

let size t = Round_rows.size t.rounds
