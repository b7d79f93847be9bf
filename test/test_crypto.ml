open Clanbft.Crypto
module Bitset = Clanbft.Util.Bitset

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* SHA-256: NIST / RFC 6234 vectors *)

let nist_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Sha256.hex_of_string input))
    nist_vectors

let test_sha_million_a () =
  Alcotest.(check string) "1M x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex_of_string (String.make 1_000_000 'a'))

let test_sha_block_boundaries () =
  (* Lengths straddling the 64-byte block and the 55/56-byte padding edge. *)
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr (i land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" len)
        (Clanbft.Util.Hex.encode (Sha256.digest_string s))
        (Clanbft.Util.Hex.encode (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 127; 128; 129; 1000 ]

let test_sha_finalize_twice () =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "x";
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let prop_sha_incremental =
  QCheck.Test.make ~name:"incremental feeding equals one-shot" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      let ctx = Sha256.init () in
      Sha256.feed_string ctx a;
      Sha256.feed_string ctx b;
      String.equal (Sha256.finalize ctx) (Sha256.digest_string (a ^ b))
      && String.equal (Sha256.digest_concat a b) (Sha256.digest_string (a ^ b)))

let prop_sha_chunked =
  QCheck.Test.make ~name:"byte-at-a-time equals one-shot" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 0 300))
    (fun s ->
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
      String.equal (Sha256.finalize ctx) (Sha256.digest_string s))

(* ------------------------------------------------------------------ *)
(* Digest32 *)

let test_digest_basics () =
  let d = Digest32.hash_string "hello" in
  Alcotest.(check int) "raw size" 32 (String.length (Digest32.to_raw d));
  Alcotest.(check int) "hex size" 64 (String.length (Digest32.to_hex d));
  Alcotest.(check string) "short prefix" (String.sub (Digest32.to_hex d) 0 8) (Digest32.short d);
  Alcotest.(check bool) "self equal" true (Digest32.equal d d);
  Alcotest.(check bool) "zero distinct" false (Digest32.equal d Digest32.zero)

let test_digest_of_raw_validation () =
  Alcotest.check_raises "wrong length" (Invalid_argument "Digest32.of_raw: need 32 bytes")
    (fun () -> ignore (Digest32.of_raw "short"))

let test_digest_table () =
  let tbl = Digest32.Tbl.create 4 in
  let a = Digest32.hash_string "a" and b = Digest32.hash_string "b" in
  Digest32.Tbl.replace tbl a 1;
  Digest32.Tbl.replace tbl b 2;
  Alcotest.(check (option int)) "find a" (Some 1) (Digest32.Tbl.find_opt tbl a);
  Alcotest.(check (option int)) "find b" (Some 2) (Digest32.Tbl.find_opt tbl b)

(* ------------------------------------------------------------------ *)
(* Keychain *)

let kc = Keychain.create ~seed:77L ~n:10

let test_sign_verify () =
  let s = Keychain.sign kc ~signer:3 "message" in
  Alcotest.(check bool) "valid" true (Keychain.verify kc ~signer:3 "message" s);
  Alcotest.(check bool) "wrong signer" false (Keychain.verify kc ~signer:4 "message" s);
  Alcotest.(check bool) "wrong message" false (Keychain.verify kc ~signer:3 "other" s);
  Alcotest.(check bool) "forged" false (Keychain.verify kc ~signer:3 "message" Keychain.forge)

(* Verification compares each 8-byte lane as one word: every single-byte
   change must still fail, and so must a lane whose low 63 bits match but
   whose bit 63 is set (a valid lane never has it). *)
let test_verify_wordwise () =
  let s = Keychain.signature_to_raw (Keychain.sign kc ~signer:3 "message") in
  let verify raw = Keychain.verify kc ~signer:3 "message" (Keychain.signature_of_raw raw) in
  let edit i f =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (f (Char.code s.[i]) land 0xff));
    Bytes.to_string b
  in
  Alcotest.(check bool) "valid" true (verify s);
  Alcotest.(check bool) "forge" false
    (Keychain.verify kc ~signer:3 "message" Keychain.forge);
  for i = 0 to 31 do
    Alcotest.(check bool) (Printf.sprintf "byte %d flipped" i) false (verify (edit i lnot))
  done;
  List.iter
    (fun lane ->
      let top = (8 * lane) + 7 in
      Alcotest.(check bool) "valid top byte below 0x80" true (Char.code s.[top] < 0x80);
      Alcotest.(check bool)
        (Printf.sprintf "lane %d with bit 63 set" lane)
        false
        (verify (edit top (fun c -> c lor 0x80))))
    [ 0; 1; 2; 3 ]

let test_sign_bad_signer () =
  Alcotest.check_raises "bad signer" (Invalid_argument "Keychain.sign: bad signer")
    (fun () -> ignore (Keychain.sign kc ~signer:10 "m"))

let test_keychains_independent () =
  let other = Keychain.create ~seed:78L ~n:10 in
  let s = Keychain.sign kc ~signer:0 "m" in
  Alcotest.(check bool) "cross-keychain fails" false (Keychain.verify other ~signer:0 "m" s)

let test_aggregate_valid () =
  let msg = "agg-message" in
  let shares = List.init 7 (fun i -> (i, Keychain.sign kc ~signer:i msg)) in
  match Keychain.aggregate kc shares with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg ->
      Alcotest.(check bool) "verifies" true (Keychain.verify_aggregate kc ~msg agg);
      (* The same aggregate object, once checked, is still checked per
         message. *)
      Alcotest.(check bool) "not for another message" false
        (Keychain.verify_aggregate kc ~msg:"other-message" agg);
      Alcotest.(check bool) "still for its own" true (Keychain.verify_aggregate kc ~msg agg);
      Alcotest.(check int) "signers" 7 (Bitset.cardinal (Keychain.signers agg));
      Alcotest.(check (list int)) "no faulty" [] (Keychain.find_faulty_signers kc ~msg agg shares)

let test_aggregate_detects_forgery () =
  let msg = "agg-forged" in
  let shares =
    (2, Keychain.forge) :: List.init 4 (fun i -> (i + 3, Keychain.sign kc ~signer:(i + 3) msg))
  in
  match Keychain.aggregate kc shares with
  | None -> Alcotest.fail "aggregation failed"
  | Some agg ->
      Alcotest.(check bool) "fails verification" false (Keychain.verify_aggregate kc ~msg agg);
      Alcotest.(check (list int)) "culprit found" [ 2 ]
        (Keychain.find_faulty_signers kc ~msg agg shares)

let test_aggregate_rejects_bad_signer () =
  Alcotest.(check bool) "out-of-range signer" true
    (Keychain.aggregate kc [ (42, Keychain.forge) ] = None);
  (* A decoded aggregate may claim signers the registry does not have:
     verification says no, and reads no key outside the registry. *)
  let wide = Bitset.of_list 1_000_000 [ 0; 1; 999_999 ] in
  Alcotest.(check bool) "out-of-range signer on the wire" false
    (Keychain.verify_aggregate kc ~msg:"m"
       (Keychain.aggregate_of_wire ~tag:(String.make 32 'x') ~signers:wide))

let test_aggregate_rejects_duplicates () =
  let s = Keychain.sign kc ~signer:1 "m" in
  Alcotest.(check bool) "duplicate signer" true
    (Keychain.aggregate kc [ (1, s); (1, s) ] = None)

let test_aggregate_wire_roundtrip () =
  let msg = "wire" in
  let shares = List.init 5 (fun i -> (i, Keychain.sign kc ~signer:i msg)) in
  let agg = Option.get (Keychain.aggregate kc shares) in
  let rebuilt =
    Keychain.aggregate_of_wire ~tag:(Keychain.aggregate_tag agg)
      ~signers:(Keychain.signers agg)
  in
  Alcotest.(check bool) "decoded aggregate verifies" true
    (Keychain.verify_aggregate kc ~msg rebuilt)

let test_sizes () =
  Alcotest.(check int) "signature" 64 Keychain.signature_size;
  Alcotest.(check int) "aggregate" (64 + 2) (Keychain.aggregate_size kc)

let test_sign_tags_distinct () =
  (* The simulated MAC is not SHA-256, so spot-check its tag quality: over
     a large pile of realistic signing strings, distinct (signer, message)
     pairs must yield distinct tags, cross-(signer|message) verification
     must fail, and tags must stay byte-stable over a long run. *)
  let kc = Keychain.create ~seed:911L ~n:4 in
  let reference =
    Array.init 64 (fun i ->
        Keychain.signature_to_raw
          (Keychain.sign kc ~signer:(i mod 4) (Printf.sprintf "pin-%d" i)))
  in
  let seen = Hashtbl.create 65536 in
  let total = 200_000 in
  let buf = Bytes.create 24 in
  for i = 0 to total - 1 do
    Bytes.set_int64_le buf 0 (Int64.of_int i);
    Bytes.set_int64_le buf 8 (Int64.of_int (i * 31));
    Bytes.set_int64_le buf 16 (Int64.of_int (i lxor 0x5DEECE66));
    let tag =
      Keychain.signature_to_raw
        (Keychain.sign kc ~signer:(i land 3) (Bytes.to_string buf))
    in
    if Hashtbl.mem seen tag then Alcotest.fail "tag collision";
    Hashtbl.replace seen tag ()
  done;
  (* Signatures (and hence verify) are byte-stable across the run. *)
  Array.iteri
    (fun i expected ->
      let msg = Printf.sprintf "pin-%d" i in
      let s = Keychain.sign kc ~signer:(i mod 4) msg in
      Alcotest.(check string) "stable over run" expected
        (Keychain.signature_to_raw s);
      Alcotest.(check bool) "verifies" true
        (Keychain.verify kc ~signer:(i mod 4) msg s);
      Alcotest.(check bool) "other signer rejects" false
        (Keychain.verify kc ~signer:((i + 1) mod 4) msg s))
    reference

let prop_sign_cache_coherent =
  QCheck.Test.make ~name:"sign is deterministic" ~count:100
    QCheck.(pair (int_bound 9) string)
    (fun (signer, msg) ->
      let s1 = Keychain.sign kc ~signer msg in
      let s2 = Keychain.sign kc ~signer msg in
      String.equal (Keychain.signature_to_raw s1) (Keychain.signature_to_raw s2)
      && Keychain.verify kc ~signer msg s1)

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "NIST vectors" `Quick test_sha_vectors;
        Alcotest.test_case "million a" `Slow test_sha_million_a;
        Alcotest.test_case "block boundaries" `Quick test_sha_block_boundaries;
        Alcotest.test_case "finalize twice" `Quick test_sha_finalize_twice;
        qtest prop_sha_incremental;
        qtest prop_sha_chunked;
      ] );
    ( "crypto.digest32",
      [
        Alcotest.test_case "basics" `Quick test_digest_basics;
        Alcotest.test_case "of_raw validation" `Quick test_digest_of_raw_validation;
        Alcotest.test_case "hashtable" `Quick test_digest_table;
      ] );
    ( "crypto.keychain",
      [
        Alcotest.test_case "sign/verify" `Quick test_sign_verify;
        Alcotest.test_case "word-wise verify" `Quick test_verify_wordwise;
        Alcotest.test_case "bad signer" `Quick test_sign_bad_signer;
        Alcotest.test_case "keychains independent" `Quick test_keychains_independent;
        Alcotest.test_case "aggregate valid" `Quick test_aggregate_valid;
        Alcotest.test_case "aggregate forgery" `Quick test_aggregate_detects_forgery;
        Alcotest.test_case "aggregate bad signer" `Quick test_aggregate_rejects_bad_signer;
        Alcotest.test_case "aggregate duplicates" `Quick test_aggregate_rejects_duplicates;
        Alcotest.test_case "aggregate wire roundtrip" `Quick test_aggregate_wire_roundtrip;
        Alcotest.test_case "wire sizes" `Quick test_sizes;
        Alcotest.test_case "sign tags distinct" `Slow test_sign_tags_distinct;
        qtest prop_sign_cache_coherent;
      ] );
  ]
