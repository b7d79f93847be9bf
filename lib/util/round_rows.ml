type 'a row = { round : int; slots : 'a option array; mutable count : int }

(* Rounds hash to themselves: [Hashtbl.hash] is a C call, and row lookups
   that miss the cache still run on receive paths. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash r = r land max_int
end)

(* Enough cached rows for the rounds in flight around a replica's current
   one (its proposals, the echoes and certificates of the last two rounds,
   parent lookups one round down); consecutive rounds never collide. *)
let hot_bits = 3
let hot_mask = (1 lsl hot_bits) - 1

type 'a t = {
  n : int;
  table : 'a row Tbl.t;
  order : 'a row Heap.t; (* the rows, lowest round first, for dropping *)
  hot : 'a row array; (* round land hot_mask -> a row, or [empty] *)
  empty : 'a row; (* the answer for a round without a row; never filled *)
  mutable size : int;
}

let create ~n =
  let empty = { round = min_int; slots = Array.make n None; count = 0 } in
  {
    n;
    table = Tbl.create 16;
    order = Heap.create ~capacity:16 ~dummy:empty ();
    hot = Array.make (1 lsl hot_bits) empty;
    empty;
    size = 0;
  }

let n t = t.n

(* The round's row, or [empty]. A table hit refills the cache entry. *)
let row t round =
  let r = Array.unsafe_get t.hot (round land hot_mask) in
  if r.round = round && r != t.empty then r
  else
    match Tbl.find t.table round with
    | r ->
        Array.unsafe_set t.hot (round land hot_mask) r;
        r
    | exception Not_found -> t.empty

let find t ~round ~source =
  if source < 0 || source >= t.n then None else Array.unsafe_get (row t round).slots source

let mem t ~round ~source = Option.is_some (find t ~round ~source)

let set t ~round ~source x =
  if source < 0 || source >= t.n then invalid_arg "Round_rows.set: source out of range";
  let r =
    let r = row t round in
    if r != t.empty then r
    else begin
      let r = { round; slots = Array.make t.n None; count = 0 } in
      Tbl.replace t.table round r;
      Heap.push t.order round r;
      t.hot.(round land hot_mask) <- r;
      r
    end
  in
  (match r.slots.(source) with
  | None ->
      r.count <- r.count + 1;
      t.size <- t.size + 1
  | Some _ -> ());
  r.slots.(source) <- Some x

let remove t ~round ~source =
  if source >= 0 && source < t.n then
    let r = row t round in
    match r.slots.(source) with
    | Some _ ->
        r.slots.(source) <- None;
        r.count <- r.count - 1;
        t.size <- t.size - 1
    | None -> ()

let count t round = (row t round).count
let iter_row t round f = Array.iter (function Some x -> f x | None -> ()) (row t round).slots

let fold f t acc =
  Tbl.fold
    (fun _ r acc ->
      if r.count = 0 then acc
      else Array.fold_left (fun acc s -> match s with Some x -> f x acc | None -> acc) acc r.slots)
    t.table acc

let size t = t.size

let drop_below t round =
  while (not (Heap.is_empty t.order)) && Heap.min_priority t.order < round do
    let r = Heap.pop_data t.order in
    Tbl.remove t.table r.round;
    t.size <- t.size - r.count
  done;
  Array.iteri (fun i r -> if r.round < round then t.hot.(i) <- t.empty) t.hot
