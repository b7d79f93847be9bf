module Bitset = Clanbft_util.Bitset
module Prof = Clanbft_obs.Prof

let sec_sign = Prof.section "keychain.sign"
let sec_verify = Prof.section "keychain.verify"

type t = {
  (* Per-party MAC keys. A signature is a keyed pseudo-random function of
     (key, message); the two 63-bit key words give each party an
     effectively unguessable 126-bit secret within the simulation. *)
  k0 : int array;
  k1 : int array;
}

type signature = string

type aggregate = {
  tag : string; (* combined tag: XOR of constituent signature bytes *)
  who : Bitset.t;
  (* Expected-tag memo, for the message hash (memo_h0, memo_h1): one
     aggregate object is broadcast to n receivers; recomputing its
     expected tag per receiver would be O(n * quorum) lane computations.
     Keyed by the hash, so an aggregate checked against one message is
     never taken as checked against another. *)
  mutable expected : string option;
  mutable memo_h0 : int;
  mutable memo_h1 : int;
}

let signature_size = 64

(* ------------------------------------------------------------------ *)
(* The simulated MAC.

   Echo verification at n = 150 runs ~n^3 times per round (n RBC
   instances, each echoed by n parties to n receivers), so the tag
   computation is the single hottest function in a paper-scale run. An
   earlier version used SHA-256(sk ‖ msg) behind a (signer, message) memo
   table; at 13 MB the table outgrew the cache and the generic string
   hash per probe dominated the profile. Signatures are *simulated*
   either way — what consensus needs is that a party that does not hold
   the key cannot produce a tag that verifies, and that distinct
   (signer, message) pairs get distinct tags w.h.p. — so the tag is now a
   keyed avalanche over the message digest: two independent 63-bit FNV
   accumulators over the message (≈126 bits against collisions), then
   four splitmix-style mixed output lanes keyed by the party's secret.
   Verification recomputes the four lanes and compares bytes in place:
   no table, no allocation, ~tens of ns. *)

let fnv_offset0 = 0x1CBF29CE484222E5
let fnv_offset1 = 0x6C62272E07BB0142
let fnv_prime0 = 0x100000001B3
let fnv_prime1 = 0x10000000233

(* splitmix64 finalizer truncated to OCaml's 63-bit native int. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let msg_hash0 msg =
  let h = ref fnv_offset0 in
  for i = 0 to String.length msg - 1 do
    h := (!h lxor Char.code (String.unsafe_get msg i)) * fnv_prime0
  done;
  !h

let msg_hash1 msg =
  let h = ref fnv_offset1 in
  for i = 0 to String.length msg - 1 do
    h := (!h lxor Char.code (String.unsafe_get msg i)) * fnv_prime1
  done;
  !h

let lane ~k0 ~k1 ~h0 ~h1 i =
  mix (k0 + (h0 * 0x9E3779B9) + (i * 0x3C6EF372) + ((k1 lxor h1) lsl 1))

let create ~seed ~n =
  let rng = Clanbft_util.Rng.create seed in
  let word () = Int64.to_int (Clanbft_util.Rng.next_int64 rng) land max_int in
  let k0 = Array.init n (fun _ -> word ()) in
  let k1 = Array.init n (fun _ -> word ()) in
  { k0; k1 }

let n t = Array.length t.k0

let set_lane b off v =
  for i = 0 to 7 do
    Bytes.unsafe_set b (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

(* A lane is a 63-bit value stored little-endian in 8 bytes, so bit 63 of
   a valid tag's word is always clear — [forge] (all 0xff) never verifies.
   One 64-bit load per lane; [Int64.to_int] keeps the low 63 bits. *)
let lane_matches s off v =
  let w = String.get_int64_le s off in
  w >= 0L && Int64.to_int w = v

(* Precomputed message hash: the echo path verifies n distinct signers
   against the SAME signing string (once per slot per receiver), so the
   caller hashes the message once and amortises the FNV passes across all
   its verifications — see [Sailfish]'s per-slot vote state. *)
type msg_hash = { h0 : int; h1 : int }

let hash_msg msg = { h0 = msg_hash0 msg; h1 = msg_hash1 msg }

let sign t ~signer msg =
  if signer < 0 || signer >= n t then invalid_arg "Keychain.sign: bad signer";
  Prof.enter sec_sign;
  let k0 = Array.unsafe_get t.k0 signer
  and k1 = Array.unsafe_get t.k1 signer in
  let h0 = msg_hash0 msg and h1 = msg_hash1 msg in
  let b = Bytes.create 32 in
  for i = 0 to 3 do
    set_lane b (8 * i) (lane ~k0 ~k1 ~h0 ~h1 i)
  done;
  let s = Bytes.unsafe_to_string b in
  Prof.leave sec_sign;
  s

let verify_hashed t ~signer { h0; h1 } signature =
  Prof.enter sec_verify;
  let ok =
    signer >= 0 && signer < n t
    && String.length signature = 32
    &&
    let k0 = Array.unsafe_get t.k0 signer
    and k1 = Array.unsafe_get t.k1 signer in
    lane_matches signature 0 (lane ~k0 ~k1 ~h0 ~h1 0)
    && lane_matches signature 8 (lane ~k0 ~k1 ~h0 ~h1 1)
    && lane_matches signature 16 (lane ~k0 ~k1 ~h0 ~h1 2)
    && lane_matches signature 24 (lane ~k0 ~k1 ~h0 ~h1 3)
  in
  Prof.leave sec_verify;
  ok

let verify t ~signer msg signature =
  verify_hashed t ~signer (hash_msg msg) signature

let forge = String.make 32 '\xff'

(* A running aggregate: the XOR of the signatures added so far, updated in
   place, as BLS shares can be combined one at a time. A signature is
   always 32 bytes (every constructor above guarantees it), so a share
   folds in as four 64-bit words, which the native compiler keeps
   unboxed. *)
type accumulator = Bytes.t

let accumulator () = Bytes.make 32 '\x00'

let accumulate acc s =
  for w = 0 to 3 do
    let i = 8 * w in
    Bytes.set_int64_le acc i
      (Int64.logxor (Bytes.get_int64_le acc i) (String.get_int64_le s i))
  done

(* The tag is copied: the accumulator may keep growing after a certificate
   is cut from it. *)
let to_aggregate acc ~signers =
  { tag = Bytes.to_string acc; who = signers; expected = None; memo_h0 = 0; memo_h1 = 0 }

let aggregate t parts =
  let total = n t in
  let who = Bitset.create total in
  let ok =
    List.for_all
      (fun (signer, _) -> signer >= 0 && signer < total && Bitset.add who signer)
      parts
  in
  if not ok then None
  else begin
    let acc = accumulator () in
    List.iter (fun (_, s) -> accumulate acc s) parts;
    Some (to_aggregate acc ~signers:who)
  end

(* XOR of honest signatures = per-lane XOR of their lane words, so the
   expected tag folds in native-int lanes: one message hash plus four mixed
   lanes per signer, no intermediate strings. A plain loop over the signer
   set, not [Bitset.fold], so no closure is made and the lanes stay
   unboxed: a certificate is checked when it is sent, so nearly every
   aggregate broadcast is checked once. *)
let expected_tag_hashed t ~hash:{ h0; h1 } agg =
  match agg.expected with
  | Some e when agg.memo_h0 = h0 && agg.memo_h1 = h1 -> e
  | _ ->
      let l0 = ref 0 and l1 = ref 0 and l2 = ref 0 and l3 = ref 0 in
      for signer = 0 to Bitset.capacity agg.who - 1 do
        if Bitset.mem agg.who signer then begin
          let k0 = Array.unsafe_get t.k0 signer
          and k1 = Array.unsafe_get t.k1 signer in
          l0 := !l0 lxor lane ~k0 ~k1 ~h0 ~h1 0;
          l1 := !l1 lxor lane ~k0 ~k1 ~h0 ~h1 1;
          l2 := !l2 lxor lane ~k0 ~k1 ~h0 ~h1 2;
          l3 := !l3 lxor lane ~k0 ~k1 ~h0 ~h1 3
        end
      done;
      let b = Bytes.create 32 in
      set_lane b 0 !l0;
      set_lane b 8 !l1;
      set_lane b 16 !l2;
      set_lane b 24 !l3;
      let e = Bytes.unsafe_to_string b in
      agg.expected <- Some e;
      agg.memo_h0 <- h0;
      agg.memo_h1 <- h1;
      e

(* An aggregate names only this registry's parties: its signer set may
   come off the wire, and the lanes index the key arrays unchecked. *)
let signers_in_range t who =
  let ok = ref true in
  for i = n t to Bitset.capacity who - 1 do
    if Bitset.mem who i then ok := false
  done;
  !ok

let verify_aggregate_hashed t ~hash agg =
  Prof.enter sec_verify;
  let ok =
    signers_in_range t agg.who && String.equal agg.tag (expected_tag_hashed t ~hash agg)
  in
  Prof.leave sec_verify;
  ok

let verify_aggregate t ~msg agg =
  verify_aggregate_hashed t ~hash:(hash_msg msg) agg

let find_faulty_signers t ~msg agg shares =
  if verify_aggregate t ~msg agg then []
  else
    List.filter_map
      (fun (signer, s) ->
        if verify t ~signer msg s then None else Some signer)
      shares
    |> List.sort_uniq Stdlib.compare

let signers agg = agg.who
let aggregate_size t = signature_size + ((n t + 7) / 8)
let aggregate_tag agg = agg.tag
let aggregate_of_wire ~tag ~signers =
  { tag; who = signers; expected = None; memo_h0 = 0; memo_h1 = 0 }
let signature_to_raw s = s
let signature_of_raw s =
  if String.length s <> 32 then invalid_arg "Keychain.signature_of_raw";
  s
