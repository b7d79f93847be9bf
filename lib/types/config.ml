type dissemination =
  | Full
  | Single_clan of int array
  | Multi_clan of int array array

type edge_policy = Dense | Sparse of { k : int; seed : int64 }

type t = {
  n : int;
  f : int;
  dissemination : dissemination;
  edge_policy : edge_policy;
  clans : int array array; (* [Full] -> [| all |] *)
  clan_of : int option array; (* party -> clan index *)
}

let validate_clan ~n seen clan =
  if Array.length clan = 0 then invalid_arg "Config: empty clan";
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Config: clan member out of range";
      if seen.(i) then invalid_arg "Config: clans must be disjoint";
      seen.(i) <- true)
    clan

let make ~n ?f ?(edge_policy = Dense) dissemination =
  if n <= 0 then invalid_arg "Config: n must be positive";
  let f = match f with Some f -> f | None -> (n - 1) / 3 in
  if f < 0 || (3 * f) + 1 > n then
    invalid_arg "Config: need 0 <= f and n >= 3f+1";
  (match edge_policy with
  | Dense -> ()
  | Sparse { k; _ } ->
      if k < 1 then invalid_arg "Config: sparse k must be >= 1");
  let clans =
    match dissemination with
    | Full -> [| Array.init n (fun i -> i) |]
    | Single_clan clan -> [| Array.copy clan |]
    | Multi_clan clans -> Array.map Array.copy clans
  in
  let seen = Array.make n false in
  Array.iter (fun clan -> validate_clan ~n seen clan) clans;
  let clan_of = Array.make n None in
  Array.iteri
    (fun c members -> Array.iter (fun i -> clan_of.(i) <- Some c) members)
    clans;
  { n; f; dissemination; edge_policy; clans; clan_of }

let n t = t.n
let f t = t.f
let quorum t = (2 * t.f) + 1
let weak_quorum t = t.f + 1
let dissemination t = t.dissemination
let edge_policy t = t.edge_policy
let sparse_edges t = t.edge_policy <> Dense

(* Cap on a sparse vertex's strong parents: the k sampled parents plus the
   three structural edges (self, previous leader, link-to-voter). *)
let sparse_strong_cap = function
  | Dense -> max_int
  | Sparse { k; _ } -> k + 3

(* Cap on a sparse vertex's weak edges per proposal: leftover uncovered
   vertices wait for a later round (oldest drain first, so none starve).
   4k keeps the drain ahead of the arrival rate at paper scale — an
   uncapped drain commits no more than this at n = 50..150 — while still
   bounding a vertex's wire size at O(k). *)
let sparse_weak_cap = function
  | Dense -> max_int
  | Sparse { k; _ } -> max 16 (4 * k)
let leader_of_round t round = round mod t.n

let is_block_proposer t i =
  match t.dissemination with
  | Full | Multi_clan _ -> i >= 0 && i < t.n
  | Single_clan _ -> t.clan_of.(i) = Some 0

let block_proposers t =
  List.filter (is_block_proposer t) (List.init t.n (fun i -> i))

let proposer_clan t ~proposer =
  match t.dissemination with
  | Full -> Some 0
  | Single_clan _ -> if t.clan_of.(proposer) = Some 0 then Some 0 else None
  | Multi_clan _ -> t.clan_of.(proposer)

let payload_clan t ~proposer =
  match proposer_clan t ~proposer with
  | None -> None
  | Some c -> Some t.clans.(c)

let clan_fault_bound t c =
  let nc = Array.length t.clans.(c) in
  ((nc + 1) / 2) - 1

let clan_echo_threshold t ~proposer =
  match t.dissemination with
  | Full -> 0
  | Single_clan _ | Multi_clan _ -> (
      match proposer_clan t ~proposer with
      | None -> 0
      | Some c -> clan_fault_bound t c + 1)

let in_payload_clan t ~proposer i =
  match proposer_clan t ~proposer with
  | None -> false
  | Some c -> t.clan_of.(i) = Some c

let executes_blocks t i = t.clan_of.(i) <> None
let clan_of t i = t.clan_of.(i)
let clan_count t = Array.length t.clans

let pp ppf t =
  let mode =
    match t.dissemination with
    | Full -> "full"
    | Single_clan c -> Printf.sprintf "single-clan(nc=%d)" (Array.length c)
    | Multi_clan cs ->
        Printf.sprintf "multi-clan(q=%d,nc=%s)" (Array.length cs)
          (String.concat ","
             (Array.to_list (Array.map (fun c -> string_of_int (Array.length c)) cs)))
  in
  let edges =
    match t.edge_policy with
    | Dense -> ""
    | Sparse { k; _ } -> Printf.sprintf ",sparse(k=%d)" k
  in
  Format.fprintf ppf "config(n=%d,f=%d,%s%s)" t.n t.f mode edges
