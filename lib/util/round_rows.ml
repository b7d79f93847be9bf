(* A slot holds its value itself, or [vacant]. Values go in and out
   through [Obj.magic]: every OCaml value is one word, an immediate or a
   pointer, and [slot] is a record type, so a slot array is an ordinary
   pointer array (made from [vacant], never a flat float array) and reads
   are plain loads. [vacant] is private to this module, so no caller can
   store it; it is mutable only so that it is a fresh block of its own. *)
type slot = { mutable vacant : unit }

let vacant = { vacant = () }
let[@inline] to_slot (x : 'a) : slot = Obj.magic x
let[@inline] of_slot (s : slot) : 'a = Obj.magic s

type row = { mutable round : int; slots : slot array; mutable count : int }

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

(* A cache entry that matches no round: lookups at entry [i] ask only for
   rounds [r] with [r land hot_mask = i]. *)
let[@inline] no_round i = i lxor 1

type 'a t = {
  n : int;
  table : row Tbl.t; (* the rows holding a slot *)
  (* The direct-mapped cache, indexed by [round land hot_mask]: entry [i]
     holds the row of round [hot_round.(i)], and that row's slot array, so
     a hit reads the slot with no stop at the row record. *)
  hot_round : int array;
  hot_slots : slot array array;
  hot_row : row array;
  empty : row; (* the answer for a round without a row; never filled *)
  (* The last row [remove] freed (all vacant) or [empty]: rows that fill and
     empty in turn reuse it instead of allocating one per round. *)
  mutable spare : row;
  mutable size : int;
}

let create ~n =
  let empty = { round = min_int; slots = Array.make n vacant; count = 0 } in
  {
    n;
    table = Tbl.create 16;
    hot_round = Array.init (1 lsl hot_bits) no_round;
    hot_slots = Array.make (1 lsl hot_bits) empty.slots;
    hot_row = Array.make (1 lsl hot_bits) empty;
    empty;
    spare = empty;
    size = 0;
  }

let n t = t.n

let cache t i round r =
  Array.unsafe_set t.hot_round i round;
  Array.unsafe_set t.hot_slots i r.slots;
  Array.unsafe_set t.hot_row i r

let uncache t i =
  Array.unsafe_set t.hot_round i (no_round i);
  Array.unsafe_set t.hot_slots i t.empty.slots;
  Array.unsafe_set t.hot_row i t.empty

(* A cache miss: the round's row from the table, or [empty] for a round
   without one, cached either way: a round whose row was freed is still
   asked about (certificate copies keep arriving for it). *)
let row_of_table t round =
  let r = match Tbl.find t.table round with r -> r | exception Not_found -> t.empty in
  cache t (round land hot_mask) round r;
  r

(* The round's row, or [empty]. *)
let row t round =
  let i = round land hot_mask in
  if Array.unsafe_get t.hot_round i = round then Array.unsafe_get t.hot_row i
  else row_of_table t round

(* The round's slot array ([empty]'s, all vacant, without a row). *)
let[@inline] slots t round =
  let i = round land hot_mask in
  if Array.unsafe_get t.hot_round i = round then Array.unsafe_get t.hot_slots i
  else (row_of_table t round).slots

let[@inline] in_range t source = source >= 0 && source < t.n

let find_or t ~round ~source default =
  if not (in_range t source) then default
  else
    let s = Array.unsafe_get (slots t round) source in
    if s == vacant then default else of_slot s

let find t ~round ~source =
  if not (in_range t source) then None
  else
    let s = Array.unsafe_get (slots t round) source in
    if s == vacant then None else Some (of_slot s)

let mem t ~round ~source =
  in_range t source && Array.unsafe_get (slots t round) source != vacant

let set t ~round ~source x =
  if not (in_range t source) then invalid_arg "Round_rows.set: source out of range";
  let r =
    let r = row t round in
    if r != t.empty then r
    else begin
      let r = t.spare in
      let r = if r == t.empty then { round; slots = Array.make t.n vacant; count = 0 } else r in
      t.spare <- t.empty;
      r.round <- round;
      Tbl.replace t.table round r;
      cache t (round land hot_mask) round r;
      r
    end
  in
  if r.slots.(source) == vacant then begin
    r.count <- r.count + 1;
    t.size <- t.size + 1
  end;
  r.slots.(source) <- to_slot x

(* A row found by [row] is cached, so a freed row's entry turns [empty]. *)
let remove t ~round ~source =
  if in_range t source then begin
    let r = row t round in
    if r.slots.(source) != vacant then begin
      r.slots.(source) <- vacant;
      r.count <- r.count - 1;
      t.size <- t.size - 1;
      if r.count = 0 then begin
        Tbl.remove t.table round;
        cache t (round land hot_mask) round t.empty;
        t.spare <- r
      end
    end
  end

let count t round = (row t round).count

let iter_row t round f =
  Array.iter (fun s -> if s != vacant then f (of_slot s)) (row t round).slots

let fold f t acc =
  Tbl.fold
    (fun _ r acc ->
      Array.fold_left (fun acc s -> if s == vacant then acc else f (of_slot s) acc) acc r.slots)
    t.table acc

let size t = t.size

let drop_below t round =
  Tbl.filter_map_inplace
    (fun _ r -> if r.round >= round then Some r else (t.size <- t.size - r.count; None))
    t.table;
  Array.iteri (fun i r -> if r != t.empty && r.round < round then uncache t i) t.hot_row
