(* The splitmix64 state, unboxed in 8 bytes: a [mutable state : int64]
   field would box a fresh int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let seed_of_string key =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    key;
  !h

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t =
  let seed = next_int64 t in
  (* Mixing twice decorrelates the child stream from the parent's future. *)
  create (mix64 seed)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias: a draw in the last,
     incomplete block of [bound] values is redrawn. *)
  let bound64 = Int64.of_int bound in
  let v = ref (-1L) in
  while !v < 0L do
    let r = Int64.shift_right_logical (next_int64 t) 1 in
    let x = Int64.rem r bound64 in
    if Int64.(sub (add (sub r x) bound64) 1L) >= 0L then v := x
  done;
  Int64.to_int !v

let bits53 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11)
let float t bound = float_of_int (bits53 t) *. (1.0 /. 9007199254740992.0) *. bound

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
