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

(* What the allocation-free lookups answer for an empty slot; never
   stored (its source is out of range). *)
let absent =
  Vertex.make ~round:0 ~source:(-1) ~block_digest:Clanbft_crypto.Digest32.zero
    ~strong_edges:[||] ~weak_edges:[||] ()

let find t ~round ~source = Round_rows.find t.rounds ~round ~source
let find_or_absent t ~round ~source = Round_rows.find_or t.rounds ~round ~source absent
let mem t ~round ~source = Round_rows.mem t.rounds ~round ~source

(* The referenced vertex, or [absent] (also on a digest mismatch). *)
let resolve t (r : Vertex.vref) =
  let v = find_or_absent t ~round:r.round ~source:r.source in
  if v != absent && Clanbft_crypto.Digest32.equal v.digest r.digest then v else absent

let find_ref t r =
  let v = resolve t r in
  if v == absent then None else Some v

(* References below the GC floor count as satisfied: their subtree was
   already ordered and pruned. *)
let ref_satisfied t (r : Vertex.vref) = r.round < t.floor || resolve t r != absent

(* Allocation-free insertion guard. Strong edges all target [v.round - 1],
   so an empty previous round (above the floor) fails every strong edge at
   once; otherwise each edge is one cached-row slot probe. Weak edges are
   rare and probed individually. Plain recursive loops, so no closure is
   made per call. *)
let rec all_resolve t (refs : Vertex.vref array) i =
  i >= Array.length refs || (resolve t refs.(i) != absent && all_resolve t refs (i + 1))

let rec all_satisfied t (refs : Vertex.vref array) i =
  i >= Array.length refs || (ref_satisfied t refs.(i) && all_satisfied t refs (i + 1))

let parents_present t (v : Vertex.t) =
  Prof.enter sec_parents;
  let strong_ok =
    Array.length v.strong_edges = 0
    || v.round - 1 < t.floor
    || (Round_rows.count t.rounds (v.round - 1) > 0 && all_resolve t v.strong_edges 0)
  in
  let ok = strong_ok && all_satisfied t v.weak_edges 0 in
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
  let existing = find_or_absent t ~round:v.round ~source:v.source in
  if existing != absent then begin
    if not (Clanbft_crypto.Digest32.equal existing.digest v.digest) then begin
      Prof.leave sec_insert;
      invalid_arg "Store.add: conflicting vertex for an occupied slot"
    end
  end
  else begin
    if not (parents_present t v) then begin
      Prof.leave sec_insert;
      invalid_arg "Store.add: parent missing"
    end;
    Round_rows.set t.rounds ~round:v.round ~source:v.source v;
    if v.round > t.highest then t.highest <- v.round
  end;
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
              else if e.round > round && not (Round_rows.mem visited ~round:e.round ~source:e.source)
              then begin
                let parent = resolve t e in
                if parent != absent then begin
                  Round_rows.set visited ~round:e.round ~source:e.source ();
                  next := parent :: !next
                end
              end)
            v.strong_edges;
          !hits || go !next
    in
    go [ from ]
  end

let causal_history t (v : Vertex.t) ~skip =
  let visited = Round_rows.create ~n:(n t) in
  let acc = ref [] in
  let rec visit (v : Vertex.t) =
    if not (Round_rows.mem visited ~round:v.round ~source:v.source) then begin
      Round_rows.set visited ~round:v.round ~source:v.source ();
      if not (skip ~round:v.round ~source:v.source) then begin
        acc := v :: !acc;
        Vertex.iter_edges v (fun r ->
            let p = resolve t r in
            if p != absent then visit p)
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
