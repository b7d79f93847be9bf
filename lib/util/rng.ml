type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let seed_of_string key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  !h

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = next_int64 t in
  (* Mixing twice decorrelates the child stream from the parent's future. *)
  { state = mix64 seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec go () =
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem r bound64 in
    if Int64.(sub (add (sub r v) bound64) 1L) < 0L then go () else Int64.to_int v
  in
  go ()

let float t bound =
  let r = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (int t 256))
  done;
  b

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
