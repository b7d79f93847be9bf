(* Straightforward FIPS 180-4 implementation over native ints masked to 32
   bits. OCaml's native int is 63-bit, so 32-bit modular arithmetic is just
   [land 0xFFFFFFFF] after additions; logical ops need no masking because
   operands stay within 32 bits. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 chaining words *)
  block : bytes; (* 64-byte working block *)
  mutable block_len : int; (* bytes currently buffered in [block] *)
  mutable total_len : int; (* total message bytes fed so far *)
  w : int array; (* 64-entry message schedule, reused across blocks *)
  mutable finalized : bool;
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
    w = Array.make 64 0;
    finalized = false;
  }

let mask = 0xFFFFFFFF

(* Compress one 64-byte block read from [src] at [off]. The schedule loads
   words with 32-bit reads instead of four byte loads each; the expansion
   and round loops hoist repeated array reads and go through unsafe
   accessors (indices are statically in range); the eight working variables
   live as parameters of a tail-recursive round function, so the whole
   round loop runs without a single heap allocation. *)
let compress_block ctx src off =
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i
      (Int32.to_int (Bytes.get_int32_be src (off + (4 * i))) land mask)
  done;
  (* Rotations: a 32-bit value doubled into the low 62 bits of the native
     int ([x lor (x lsl 32)]) turns each rotr into a single shift. All
     rotation amounts used by SHA-256 are < 32, so every needed bit sits
     below position 57 and the 63-bit int loses nothing. *)
  for i = 16 to 63 do
    let w15 = Array.unsafe_get w (i - 15) and w2 = Array.unsafe_get w (i - 2) in
    let w15d = w15 lor (w15 lsl 32) and w2d = w2 lor (w2 lsl 32) in
    let s0 = ((w15d lsr 7) lxor (w15d lsr 18) lxor (w15 lsr 3)) land mask in
    let s1 = ((w2d lsr 17) lxor (w2d lsr 19) lxor (w2 lsr 10)) land mask in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask)
  done;
  let h = ctx.h in
  let rec round i a b c d e f g hh =
    if i = 64 then begin
      h.(0) <- (h.(0) + a) land mask;
      h.(1) <- (h.(1) + b) land mask;
      h.(2) <- (h.(2) + c) land mask;
      h.(3) <- (h.(3) + d) land mask;
      h.(4) <- (h.(4) + e) land mask;
      h.(5) <- (h.(5) + f) land mask;
      h.(6) <- (h.(6) + g) land mask;
      h.(7) <- (h.(7) + hh) land mask
    end
    else begin
      let ed = e lor (e lsl 32) in
      let s1 = ((ed lsr 6) lxor (ed lsr 11) lxor (ed lsr 25)) land mask in
      (* ch = (e AND f) XOR (NOT e AND g), via the branch-free identity. *)
      let ch = g lxor (e land (f lxor g)) in
      let temp1 =
        (hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask
      in
      let ad = a lor (a lsl 32) in
      let s0 = ((ad lsr 2) lxor (ad lsr 13) lxor (ad lsr 22)) land mask in
      (* maj, as (a AND b) OR (c AND (a OR b)). *)
      let maj = a land b lor (c land (a lor b)) in
      let temp2 = (s0 + maj) land mask in
      round (i + 1) ((temp1 + temp2) land mask) a b c ((d + temp1) land mask) e
        f g
    end
  in
  round 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let compress ctx = compress_block ctx ctx.block 0

let feed_bytes ctx src ~pos ~len =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Sha256.feed_bytes: bad range";
  ctx.total_len <- ctx.total_len + len;
  let pos = ref pos and remaining = ref len in
  (* Top up a partially filled working block first. *)
  if ctx.block_len > 0 then begin
    let chunk = min (64 - ctx.block_len) !remaining in
    Bytes.blit src !pos ctx.block ctx.block_len chunk;
    ctx.block_len <- ctx.block_len + chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    if ctx.block_len = 64 then begin
      compress ctx;
      ctx.block_len <- 0
    end
  end;
  (* Bulk path: full blocks compress straight from the source, skipping the
     copy through the 64-byte buffer. *)
  if ctx.block_len = 0 then begin
    while !remaining >= 64 do
      compress_block ctx src !pos;
      pos := !pos + 64;
      remaining := !remaining - 64
    done;
    if !remaining > 0 then begin
      Bytes.blit src !pos ctx.block 0 !remaining;
      ctx.block_len <- !remaining;
      remaining := 0
    end
  end

let feed_string ctx s =
  feed_bytes ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized";
  let bit_len = ctx.total_len * 8 in
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let pad_len =
    let r = (ctx.total_len + 1 + 8) mod 64 in
    if r = 0 then 1 else 1 + (64 - r)
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  (* Bypass the total_len update: feed the padding directly. *)
  let pos = ref 0 and remaining = ref (Bytes.length pad) in
  while !remaining > 0 do
    let space = 64 - ctx.block_len in
    let chunk = min space !remaining in
    Bytes.blit pad !pos ctx.block ctx.block_len chunk;
    ctx.block_len <- ctx.block_len + chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    if ctx.block_len = 64 then begin
      compress ctx;
      ctx.block_len <- 0
    end
  done;
  assert (ctx.block_len = 0);
  ctx.finalized <- true;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.unsafe_to_string out

let sec_digest = Clanbft_obs.Prof.section "sha256"

let digest_string s =
  Clanbft_obs.Prof.enter sec_digest;
  let ctx = init () in
  feed_string ctx s;
  let d = finalize ctx in
  Clanbft_obs.Prof.leave sec_digest;
  d

let digest_concat a b =
  Clanbft_obs.Prof.enter sec_digest;
  let ctx = init () in
  feed_string ctx a;
  feed_string ctx b;
  let d = finalize ctx in
  Clanbft_obs.Prof.leave sec_digest;
  d

let hex_of_string s = Clanbft_util.Hex.encode (digest_string s)
