open Clanbft.Util

let qtest = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_pinned_stream () =
  (* splitmix64 at seed 42, recorded before the state moved into unboxed
     bytes: every seeded experiment depends on this exact stream. *)
  let r = Rng.create 42L in
  let first16 = List.init 16 (fun _ -> Rng.next_int64 r) in
  Alcotest.(check (list int64)) "first 16 draws"
    [
      -4767286540954276203L; 2949826092126892291L; 5139283748462763858L;
      6349198060258255764L; 701532786141963250L; -2430762948046562554L;
      4028864712777624925L; -3677692746721775708L; 6270620877612482005L;
      -7037763681458882642L; 3779771651426294207L; 9094045341461139646L;
      -8976257307478440218L; -8854191821003330121L; -6176718654468026660L;
      3752715396868486130L;
    ]
    first16;
  let r = Rng.create 42L in
  let child = Rng.split r in
  Alcotest.(check int64) "split child" (-4204815582636234286L) (Rng.next_int64 child);
  Alcotest.(check int64) "parent after split" 2949826092126892291L (Rng.next_int64 r);
  let seed = Rng.seed_of_string "dense-n50" in
  Alcotest.(check int64) "seed_of_string" (-7690147102788910754L) seed;
  let r = Rng.create seed in
  Alcotest.(check (list int)) "int" [ 523; 119; 390; 477; 774; 23; 291; 683 ]
    (List.init 8 (fun _ -> Rng.int r 1000));
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.6574513afddeap-2; 0x1.c021af1f83ab7p-1; 0x1.f00f748be2786p-1; 0x1.1bb8cb7212fb9p-1 ]
    (List.init 4 (fun _ -> Rng.float r 1.0))

let test_rng_draws_allocate_nothing () =
  let r = Rng.create 3L in
  let sink = ref 0 in
  let draws () =
    for i = 1 to 1_000 do
      sink := !sink + Rng.int r i + Rng.bits53 r
    done
  in
  draws ();
  Alcotest.(check int) "int and bits53 allocate nothing" 0 (Test_sim.minor_words draws)

let test_rng_seed_sensitivity () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let distinct = ref 0 in
  for _ = 1 to 32 do
    if Rng.next_int64 a <> Rng.next_int64 b then incr distinct
  done;
  Alcotest.(check bool) "streams differ" true (!distinct > 28)

let test_rng_split_independent () =
  let parent = Rng.create 7L in
  let child = Rng.split parent in
  let c1 = Rng.next_int64 child and p1 = Rng.next_int64 parent in
  Alcotest.(check bool) "child differs from parent" true (c1 <> p1)

let test_rng_int_bounds () =
  let rng = Rng.create 99L in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_rng_int_covers () =
  let rng = Rng.create 3L in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all (fun b -> b) seen)

let test_rng_int_rejects_zero () =
  let rng = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 5L in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.0 in
    Alcotest.(check bool) "in [0,3)" true (v >= 0.0 && v < 3.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_bytes_length () =
  let rng = Rng.create 13L in
  Alcotest.(check int) "length" 33 (Bytes.length (Rng.bytes rng 33))

let test_rng_exponential_positive () =
  let rng = Rng.create 17L in
  let sum = ref 0.0 in
  for _ = 1 to 1_000 do
    let v = Rng.exponential rng ~mean:10.0 in
    Alcotest.(check bool) "positive" true (v >= 0.0);
    sum := !sum +. v
  done;
  let mean = !sum /. 1_000.0 in
  Alcotest.(check bool) "mean near 10" true (mean > 8.0 && mean < 12.0)

(* ------------------------------------------------------------------ *)
(* Heap *)

(* Drain [h] through [min_priority]/[pop_data]. *)
let heap_drain h =
  let out = ref [] in
  while not (Heap.is_empty h) do
    let p = Heap.min_priority h in
    out := (p, Heap.pop_data h) :: !out
  done;
  List.rev !out

let test_heap_basic_order () =
  let h = Heap.create ~dummy:"" () in
  List.iter (fun (p, v) -> Heap.push h p v) [ (5, "e"); (1, "a"); (3, "c") ];
  Alcotest.(check (list (pair int string))) "ascending"
    [ (1, "a"); (3, "c"); (5, "e") ]
    (heap_drain h);
  Alcotest.check_raises "empty min" (Invalid_argument "Heap.min_priority: empty heap")
    (fun () -> ignore (Heap.min_priority h));
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_data: empty heap")
    (fun () -> ignore (Heap.pop_data h))

let test_heap_fifo_ties () =
  let h = Heap.create ~dummy:"" () in
  List.iter (fun v -> Heap.push h 7 v) [ "first"; "second"; "third" ];
  Alcotest.(check (list (pair int string))) "fifo"
    [ (7, "first"); (7, "second"); (7, "third") ]
    (heap_drain h)

let test_heap_peek () =
  let h = Heap.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 9 1;
  Heap.push h 2 2;
  Alcotest.(check int) "peek min" 2 (Heap.min_priority h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create ~dummy:0 () in
  for i = 1 to 10 do
    Heap.push h i i
  done;
  Heap.clear h;
  Alcotest.(check bool) "empty after clear" true (Heap.is_empty h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun priorities ->
      let h = Heap.create ~dummy:0 () in
      List.iter (fun p -> Heap.push h p p) priorities;
      List.map fst (heap_drain h) = List.sort compare priorities)

let prop_heap_growth =
  QCheck.Test.make ~name:"heap grows past initial capacity" ~count:20
    QCheck.(int_range 100 2000)
    (fun n ->
      let h = Heap.create ~capacity:4 ~dummy:0 () in
      for i = n downto 1 do
        Heap.push h i i
      done;
      Heap.length h = n && Heap.min_priority h = 1)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_add_mem () =
  let b = Bitset.create 100 in
  Alcotest.(check bool) "fresh add" true (Bitset.add b 63);
  Alcotest.(check bool) "duplicate add" false (Bitset.add b 63);
  Alcotest.(check bool) "mem" true (Bitset.mem b 63);
  Alcotest.(check bool) "not mem" false (Bitset.mem b 64);
  Alcotest.(check int) "cardinal" 1 (Bitset.cardinal b)

let test_bitset_remove () =
  let b = Bitset.of_list 10 [ 1; 2; 3 ] in
  Alcotest.(check bool) "remove present" true (Bitset.remove b 2);
  Alcotest.(check bool) "remove absent" false (Bitset.remove b 2);
  Alcotest.(check int) "cardinal after" 2 (Bitset.cardinal b)

let test_bitset_bounds () =
  let b = Bitset.create 10 in
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.add b 10))

let test_bitset_word_boundaries () =
  (* Exercise indices around the 63-bit word boundary. *)
  let b = Bitset.create 200 in
  List.iter
    (fun i -> ignore (Bitset.add b i))
    [ 0; 62; 63; 64; 125; 126; 127; 199 ];
  Alcotest.(check (list int)) "round-trip" [ 0; 62; 63; 64; 125; 126; 127; 199 ]
    (Bitset.to_list b)

let test_bitset_inter_cardinal () =
  let a = Bitset.of_list 100 [ 1; 50; 99 ] in
  let b = Bitset.of_list 100 [ 50; 99; 3 ] in
  Alcotest.(check int) "intersection" 2 (Bitset.inter_cardinal a b)

let test_bitset_union_into () =
  let a = Bitset.of_list 100 [ 1; 2 ] in
  let b = Bitset.of_list 100 [ 2; 3 ] in
  Bitset.union_into ~dst:a b;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal a);
  Alcotest.(check bool) "has 3" true (Bitset.mem a 3)

let test_bitset_byte () =
  (* Straddle cases: a packed byte can span two 63-bit words (bytes 7,
     15, … start at bit offsets > 55 within a word). *)
  let b = Bitset.of_list 200 [ 0; 7; 56; 62; 63; 64; 71; 125; 126; 127; 199 ] in
  let expected j =
    let acc = ref 0 in
    for p = 0 to 7 do
      let i = (8 * j) + p in
      if i < Bitset.capacity b && Bitset.mem b i then acc := !acc lor (1 lsl p)
    done;
    !acc
  in
  for j = 0 to ((Bitset.capacity b + 7) / 8) - 1 do
    Alcotest.(check int) (Printf.sprintf "byte %d" j) (expected j) (Bitset.byte b j)
  done;
  (* A capacity that is an exact word multiple: the last byte's tail bits
     live past the final word. *)
  let c = Bitset.of_list 63 [ 56; 62 ] in
  Alcotest.(check int) "last byte of 63-bit set" 0x41 (Bitset.byte c 7);
  Alcotest.check_raises "out of range" (Invalid_argument "Bitset.byte")
    (fun () -> ignore (Bitset.byte c 8))

let prop_bitset_byte_model =
  QCheck.Test.make ~name:"bitset byte matches mem bit-by-bit" ~count:200
    QCheck.(pair (int_range 1 200) (list (int_range 0 199)))
    (fun (cap, ops) ->
      let b = Bitset.create cap in
      List.iter (fun i -> if i < cap then ignore (Bitset.add b i)) ops;
      let ok = ref true in
      for j = 0 to ((cap + 7) / 8) - 1 do
        let byte = Bitset.byte b j in
        for p = 0 to 7 do
          let i = (8 * j) + p in
          let expect = i < cap && Bitset.mem b i in
          if expect <> (byte land (1 lsl p) <> 0) then ok := false
        done
      done;
      !ok)

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a list model" ~count:200
    QCheck.(list (int_range 0 199))
    (fun ops ->
      let b = Bitset.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun i ->
          ignore (Bitset.add b i);
          Hashtbl.replace model i ())
        ops;
      let expected = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) model []) in
      Bitset.to_list b = expected && Bitset.cardinal b = List.length expected)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s)

let test_stats_percentiles () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile s 100.0)

let test_stats_minmax () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; -1.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "min" (-1.0) (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max s)

let test_stats_empty_total () =
  (* percentile and summary are total: nan / "empty" instead of raising *)
  let s = Stats.create () in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Stats.percentile s 50.0));
  Alcotest.(check string) "empty summary" "empty" (Stats.summary s);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile s 101.0))

let test_histogram_buckets () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 10.0; 100.0 |] in
  Alcotest.(check bool) "empty mean is nan" true
    (Float.is_nan (Stats.Histogram.mean h));
  (* Edge samples land in the bucket whose upper edge admits them
     (inclusive), strictly-greater samples in the next one. *)
  List.iter (Stats.Histogram.observe h) [ 0.5; 1.0; 1.5; 10.0; 10.5; 1e9 ];
  Alcotest.(check int) "count" 6 (Stats.Histogram.count h);
  let counts = Array.map snd (Stats.Histogram.buckets h) in
  Alcotest.(check (array int)) "bucket counts" [| 2; 2; 1; 1 |] counts;
  let edges = Array.map fst (Stats.Histogram.buckets h) in
  Alcotest.(check bool) "overflow edge is +inf" true
    (edges.(3) = Float.infinity);
  let cum = Array.map snd (Stats.Histogram.cumulative h) in
  Alcotest.(check (array int)) "cumulative" [| 2; 4; 5; 6 |] cum;
  Alcotest.(check (float 1e-9)) "p50 upper bound" 10.0
    (Stats.Histogram.quantile h 0.5);
  Alcotest.(check bool) "p100 is overflow edge" true
    (Stats.Histogram.quantile h 1.0 = Float.infinity);
  Stats.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Stats.Histogram.count h)

let test_histogram_bad_edges () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Stats.Histogram.create: edges must be strictly increasing")
    (fun () -> ignore (Stats.Histogram.create ~buckets:[| 1.0; 1.0 |]))

let test_stats_add_after_sort () =
  (* percentile sorts internally; adding afterwards must still work *)
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.0; 1.0 ];
  ignore (Stats.percentile s 50.0);
  Stats.add s 2.0;
  Alcotest.(check (float 1e-9)) "p50 after re-add" 2.0 (Stats.percentile s 50.0)

let test_stats_stddev () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check bool) "stddev near 2.14" true
    (abs_float (Stats.stddev s -. 2.138) < 0.01)

(* ------------------------------------------------------------------ *)
(* Hex *)

let test_hex_encode () =
  Alcotest.(check string) "known" "00ff10" (Hex.encode "\x00\xff\x10")

let test_hex_decode_cases () =
  Alcotest.(check string) "upper/lower" "\xab\xcd" (Hex.decode "AbCd")

let test_hex_errors () =
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"));
  Alcotest.check_raises "bad char" (Invalid_argument "Hex.decode: non-hex character")
    (fun () -> ignore (Hex.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex decode/encode round-trips" ~count:200
    QCheck.string
    (fun s -> Hex.decode (Hex.encode s) = s)

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_escape () =
  Alcotest.(check string) "plain passes" "echo_cert" (Json.escape "echo_cert");
  Alcotest.(check string) "quote, backslash, newline, control"
    {|a\"b\\c\nd\u0001\u001f|} (Json.escape "a\"b\\c\nd\001\031");
  Alcotest.(check string) "high bytes pass" "\xc3\xa9" (Json.escape "\xc3\xa9")

let test_json_floats () =
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (Json.to_string (Json.Float f)))
    [
      (3.0, "3.0");
      (-0.5, "-0.5");
      (0.1, "0.1");
      (1e20, "1e+20");
      (Float.nan, "null");
      (Float.infinity, "null");
      (Float.neg_infinity, "null");
    ];
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float g) -> Alcotest.(check (float 0.0)) "reads back equal" f g
      | _ -> Alcotest.failf "float %h did not read back" f)
    [ 1. /. 3.; 2.5e-300; 123456789.125; 0.1 +. 0.2; Float.max_float ]

let test_json_printers () =
  let v =
    Json.Obj
      [
        ("s", Json.String "x\ny");
        ("l", Json.List [ Json.Int 1; Json.Null; Json.Bool true ]);
        ("o", Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact" {|{"s":"x\ny","l":[1,null,true],"o":{}}|}
    (Json.to_string v);
  Alcotest.(check string) "short stays on one line"
    "{\"s\":\"x\\ny\",\"l\":[1,null,true],\"o\":{}}\n" (Json.pretty v);
  let record = Json.Obj [ ("a", Json.String (String.make 100 'x')) ] in
  Alcotest.(check string) "scalar members stay on one line"
    (Json.to_string record ^ "\n") (Json.pretty record);
  let long = Json.Obj [ ("a", Json.List [ Json.String (String.make 100 'x') ]); ("b", Json.Int 1) ] in
  Alcotest.(check string) "long nested value breaks per member"
    (Printf.sprintf "{\n  \"a\": [\"%s\"],\n  \"b\": 1\n}\n" (String.make 100 'x'))
    (Json.pretty long);
  Alcotest.(check bool) "pretty parses back" true (Json.of_string (Json.pretty long) = Ok long)

let test_json_parser () =
  Alcotest.(check bool) "value" true
    (Json.of_string {| {"a": [1, -2.5e1, "\u00e9\t"], "b": null} |}
    = Ok
        (Json.Obj
           [
             ("a", Json.List [ Json.Int 1; Json.Float (-25.); Json.String "\xe9\t" ]);
             ("b", Json.Null);
           ]));
  Alcotest.(check bool) "member" true
    (Json.member "b" (Json.Obj [ ("b", Json.Int 2) ]) = Some (Json.Int 2));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      ""; "{"; "[1,]"; "{\"a\"}"; "01"; "1."; "-"; "\"\\uzz\""; "\"\\uffff\"";
      "\"\\u12\""; "\"\\x\""; "\"a\nb\""; "nul"; "[1] 2"; String.make 600 '[';
    ]

(* Whatever the bytes, the parser answers; printed values read back. *)
let prop_json_total =
  QCheck.Test.make ~name:"json parser is total" ~count:2000 QCheck.string
    (fun s ->
      ignore (Json.of_string s);
      true)

let prop_json_roundtrip =
  let gen =
    QCheck.Gen.(
      sized
      @@ fix (fun self size ->
             let leaf =
               oneof
                 [
                   return Json.Null;
                   map (fun b -> Json.Bool b) bool;
                   map (fun i -> Json.Int i) int;
                   map (fun f -> Json.Float f) float;
                   map (fun s -> Json.String s) string;
                 ]
             in
             if size = 0 then leaf
             else
               frequency
                 [
                   (2, leaf);
                   (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (size / 2))));
                   ( 1,
                     map
                       (fun l -> Json.Obj l)
                       (list_size (0 -- 4) (pair string (self (size / 2)))) );
                 ]))
  in
  (* Non-finite floats print as null, so they read back as Null. *)
  let rec expected = function
    | Json.Float f when not (Float.is_finite f) -> Json.Null
    | Json.List l -> Json.List (List.map expected l)
    | Json.Obj m -> Json.Obj (List.map (fun (k, v) -> (k, expected v)) m)
    | v -> v
  in
  QCheck.Test.make ~name:"json print/parse round-trip" ~count:500 (QCheck.make gen)
    (fun v ->
      Json.of_string (Json.to_string v) = Ok (expected v)
      && Json.of_string (Json.pretty v) = Ok (expected v))

(* ------------------------------------------------------------------ *)
(* Round_rows *)

let test_round_rows_basics () =
  let t = Round_rows.create ~n:4 in
  Round_rows.set t ~round:3 ~source:1 "a";
  Round_rows.set t ~round:3 ~source:0 "b";
  Round_rows.set t ~round:11 ~source:1 "c" (* same cache entry as round 3 *);
  Round_rows.set t ~round:3 ~source:1 "a'";
  Alcotest.(check (option string)) "overwritten" (Some "a'") (Round_rows.find t ~round:3 ~source:1);
  Alcotest.(check (option string)) "evicted row still found" (Some "b")
    (Round_rows.find t ~round:3 ~source:0);
  Alcotest.(check (option string)) "empty slot" None (Round_rows.find t ~round:3 ~source:2);
  Alcotest.(check int) "count" 2 (Round_rows.count t 3);
  Alcotest.(check int) "size" 3 (Round_rows.size t);
  Alcotest.(check int) "other row" 1 (Round_rows.count t 11);
  let seen = ref [] in
  Round_rows.iter_row t 3 (fun x -> seen := x :: !seen);
  Alcotest.(check (list string)) "row in source order" [ "b"; "a'" ] (List.rev !seen);
  Alcotest.(check int) "fold" 3 (Round_rows.fold (fun _ k -> k + 1) t 0)

(* Lookups take any round and source without raising; only [set] rejects
   a source outside the row. *)
let test_round_rows_total () =
  let t = Round_rows.create ~n:4 in
  Round_rows.set t ~round:(-1) ~source:0 1;
  Round_rows.set t ~round:max_int ~source:3 2;
  Round_rows.set t ~round:min_int ~source:2 3;
  List.iter
    (fun (round, source, want) ->
      Alcotest.(check (option int))
        (Printf.sprintf "find %d %d" round source)
        want
        (Round_rows.find t ~round ~source))
    [
      (-1, 0, Some 1); (max_int, 3, Some 2); (min_int, 2, Some 3); (min_int, 0, None);
      (max_int, 4, None); (max_int, -1, None); (0, max_int, None); (7, 0, None);
    ];
  Alcotest.(check int) "count of a missing round" 0 (Round_rows.count t 12);
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Round_rows.set: source out of range") (fun () ->
      Round_rows.set t ~round:0 ~source:4 0)

let test_round_rows_drop () =
  let t = Round_rows.create ~n:3 in
  for round = 0 to 19 do
    Round_rows.set t ~round ~source:(round mod 3) round
  done;
  Round_rows.drop_below t 15;
  Alcotest.(check int) "size left" 5 (Round_rows.size t);
  for round = 0 to 19 do
    Alcotest.(check (option int)) (Printf.sprintf "round %d" round)
      (if round >= 15 then Some round else None)
      (Round_rows.find t ~round ~source:(round mod 3))
  done;
  (* A row made below the last drop goes with the next one; a far jump
     costs only the rows held. *)
  Round_rows.set t ~round:2 ~source:0 2;
  Alcotest.(check (option int)) "late row" (Some 2) (Round_rows.find t ~round:2 ~source:0);
  Round_rows.drop_below t max_int;
  Alcotest.(check int) "all dropped" 0 (Round_rows.size t);
  Alcotest.(check int) "fold finds none" 0 (Round_rows.fold (fun _ k -> k + 1) t 0);
  Alcotest.(check (option int)) "late row dropped" None (Round_rows.find t ~round:2 ~source:0)

(* A row emptied while it sits in the cache is freed: the counts, the
   fold and the lookups all see it gone, and a slot set in the same round
   afterwards lands in a fresh row that reads back alone. *)
let test_round_rows_freed_row () =
  let t = Round_rows.create ~n:4 in
  let agree msg ~size rows =
    Alcotest.(check int) (msg ^ ": size") size (Round_rows.size t);
    Alcotest.(check int) (msg ^ ": fold") size (Round_rows.fold (fun _ k -> k + 1) t 0);
    List.iter
      (fun (round, row) ->
        Alcotest.(check int) (Printf.sprintf "%s: count %d" msg round)
          (List.length (List.filter Option.is_some row)) (Round_rows.count t round);
        List.iteri
          (fun source want ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s: find %d %d" msg round source)
              want (Round_rows.find t ~round ~source))
          row)
      rows
  in
  Round_rows.set t ~round:5 ~source:1 "a";
  Round_rows.set t ~round:5 ~source:2 "b";
  Round_rows.set t ~round:6 ~source:0 "x";
  Round_rows.remove t ~round:5 ~source:1;
  Round_rows.remove t ~round:5 ~source:2;
  agree "freed" ~size:1 [ (5, [ None; None; None; None ]); (6, [ Some "x"; None; None; None ]) ];
  Round_rows.set t ~round:5 ~source:3 "c";
  agree "re-made" ~size:2
    [ (5, [ None; None; None; Some "c" ]); (6, [ Some "x"; None; None; None ]) ];
  let seen = ref [] in
  Round_rows.iter_row t 5 (fun x -> seen := x :: !seen);
  Alcotest.(check (list string)) "re-made row alone" [ "c" ] !seen;
  (* Round 13 shares round 5's cache entry: making and freeing it evicts
     round 5's row, which the table still answers for. *)
  Round_rows.set t ~round:13 ~source:0 "d";
  Round_rows.remove t ~round:13 ~source:0;
  agree "evicted" ~size:2
    [ (5, [ None; None; None; Some "c" ]); (13, [ None; None; None; None ]) ];
  Round_rows.remove t ~round:6 ~source:0;
  Round_rows.remove t ~round:5 ~source:3;
  agree "all freed" ~size:0 [ (5, [ None; None; None; None ]); (6, [ None; None; None; None ]) ]

(* A row re-made below the last horizon, freed and re-made or not, goes
   with the next drop at that horizon. *)
let test_round_rows_remade_below () =
  let t = Round_rows.create ~n:2 in
  for round = 0 to 9 do
    Round_rows.set t ~round ~source:0 round
  done;
  Round_rows.drop_below t 8;
  Round_rows.set t ~round:3 ~source:1 3;
  Round_rows.remove t ~round:3 ~source:1;
  Round_rows.set t ~round:3 ~source:0 30;
  Round_rows.set t ~round:4 ~source:1 4;
  Alcotest.(check int) "size before" 4 (Round_rows.size t);
  Round_rows.drop_below t 8;
  Alcotest.(check int) "size after" 2 (Round_rows.size t);
  Alcotest.(check (option int)) "round 3 dropped" None (Round_rows.find t ~round:3 ~source:0);
  Alcotest.(check (option int)) "round 4 dropped" None (Round_rows.find t ~round:4 ~source:1);
  Alcotest.(check (list int)) "rows kept" [ 8; 9 ]
    (List.sort compare (Round_rows.fold List.cons t []))

(* Random [set] / [remove] / [drop_below] sequences against an
   association-list model, every answer compared after every step. The
   rounds share cache entries (r, r + 8, r + 16), so rows are freed while
   cached, evicted and re-made, above and below the horizon. *)
type rr_step = Step_set of int * int * int | Step_remove of int * int | Step_drop of int

let prop_round_rows_alist =
  let rounds = [| 0; 1; 8; 9; 16; 17 |] and n = 3 in
  let gen =
    let open QCheck.Gen in
    let round = map (Array.get rounds) (int_bound (Array.length rounds - 1)) in
    let source = int_bound (n - 1) in
    list_size (1 -- 60)
      (frequency
         [
           (5, map3 (fun r s x -> Step_set (r, s, x)) round source (0 -- 99));
           (4, map2 (fun r s -> Step_remove (r, s)) round source);
           (1, map (fun r -> Step_drop r) round);
         ])
  in
  let print = function
    | Step_set (r, s, x) -> Printf.sprintf "set %d %d %d" r s x
    | Step_remove (r, s) -> Printf.sprintf "remove %d %d" r s
    | Step_drop r -> Printf.sprintf "drop_below %d" r
  in
  QCheck.Test.make ~name:"round_rows agrees with an association list" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print) gen) (fun steps ->
      let t = Round_rows.create ~n in
      let model = ref [] in
      List.for_all
        (fun step ->
          (match step with
          | Step_set (r, s, x) ->
              Round_rows.set t ~round:r ~source:s x;
              model := ((r, s), x) :: List.remove_assoc (r, s) !model
          | Step_remove (r, s) ->
              Round_rows.remove t ~round:r ~source:s;
              model := List.remove_assoc (r, s) !model
          | Step_drop h ->
              Round_rows.drop_below t h;
              model := List.filter (fun ((r, _), _) -> r >= h) !model);
          Round_rows.size t = List.length !model
          && List.sort compare (Round_rows.fold List.cons t [])
             = List.sort compare (List.map snd !model)
          && Array.for_all
               (fun r ->
                 Round_rows.count t r = List.length (List.filter (fun ((r', _), _) -> r' = r) !model)
                 && List.for_all
                      (fun s -> Round_rows.find t ~round:r ~source:s = List.assoc_opt (r, s) !model)
                      (List.init n Fun.id))
               rounds)
        steps)

(* Random operation sequences against a [Hashtbl] model. Rounds come
   from a pool where several share a cache entry (r, r + 8, r - 8), with
   negative and [max_int]/[min_int]-adjacent ones; sources include
   out-of-range values; drops interleave with sets, so rows are re-made
   below a dropped horizon. *)
type 'a rr_op =
  | Rr_set of int * int * 'a
  | Rr_remove of int * int
  | Rr_find of int * int
  | Rr_find_or of int * int
  | Rr_mem of int * int
  | Rr_count of int
  | Rr_iter_row of int
  | Rr_fold
  | Rr_size
  | Rr_drop_below of int

let rr_rounds =
  [| 0; 1; 7; 8; 9; 16; -1; -8; -9; max_int; max_int - 1; max_int - 8; min_int; min_int + 1;
     min_int + 8 |]

let rr_sources = [| 0; 1; 2; 3; 0; 1; 2; 3; -1; 4; max_int; min_int |]

let rr_gen gen_v =
  let open QCheck.Gen in
  let round = map (Array.get rr_rounds) (int_bound (Array.length rr_rounds - 1)) in
  let source = map (Array.get rr_sources) (int_bound (Array.length rr_sources - 1)) in
  let op =
    frequency
      [
        (6, map3 (fun r s x -> Rr_set (r, s, x)) round source gen_v);
        (2, map2 (fun r s -> Rr_remove (r, s)) round source);
        (3, map2 (fun r s -> Rr_find (r, s)) round source);
        (3, map2 (fun r s -> Rr_find_or (r, s)) round source);
        (2, map2 (fun r s -> Rr_mem (r, s)) round source);
        (1, map (fun r -> Rr_count r) round);
        (1, map (fun r -> Rr_iter_row r) round);
        (1, return Rr_fold);
        (1, return Rr_size);
        (1, map (fun r -> Rr_drop_below r) round);
      ]
  in
  list_size (1 -- 80) op

let rr_print show op =
  match op with
  | Rr_set (r, s, x) -> Printf.sprintf "set %d %d %s" r s (show x)
  | Rr_remove (r, s) -> Printf.sprintf "remove %d %d" r s
  | Rr_find (r, s) -> Printf.sprintf "find %d %d" r s
  | Rr_find_or (r, s) -> Printf.sprintf "find_or %d %d" r s
  | Rr_mem (r, s) -> Printf.sprintf "mem %d %d" r s
  | Rr_count r -> Printf.sprintf "count %d" r
  | Rr_iter_row r -> Printf.sprintf "iter_row %d" r
  | Rr_fold -> "fold"
  | Rr_size -> "size"
  | Rr_drop_below r -> Printf.sprintf "drop_below %d" r

(* Every answer agrees with the model; [default] is no generated value. *)
let rr_agrees ~default ops =
  let n = 4 in
  let t = Round_rows.create ~n in
  let m = Hashtbl.create 16 in
  let row r =
    Hashtbl.fold (fun (r', s) x acc -> if r' = r then (s, x) :: acc else acc) m []
    |> List.sort compare |> List.map snd
  in
  List.for_all
    (fun op ->
      match op with
      | Rr_set (round, source, x) ->
          if source >= 0 && source < n then begin
            Round_rows.set t ~round ~source x;
            Hashtbl.replace m (round, source) x;
            true
          end
          else (
            match Round_rows.set t ~round ~source x with
            | () -> false
            | exception Invalid_argument _ -> true)
      | Rr_remove (round, source) ->
          Round_rows.remove t ~round ~source;
          Hashtbl.remove m (round, source);
          true
      | Rr_find (round, source) ->
          Round_rows.find t ~round ~source = Hashtbl.find_opt m (round, source)
      | Rr_find_or (round, source) ->
          Round_rows.find_or t ~round ~source default
          = Option.value ~default (Hashtbl.find_opt m (round, source))
      | Rr_mem (round, source) -> Round_rows.mem t ~round ~source = Hashtbl.mem m (round, source)
      | Rr_count round -> Round_rows.count t round = List.length (row round)
      | Rr_iter_row round ->
          let got = ref [] in
          Round_rows.iter_row t round (fun x -> got := x :: !got);
          List.rev !got = row round
      | Rr_fold ->
          List.sort compare (Round_rows.fold List.cons t [])
          = List.sort compare (Hashtbl.fold (fun _ x acc -> x :: acc) m [])
      | Rr_size -> Round_rows.size t = Hashtbl.length m
      | Rr_drop_below round ->
          Round_rows.drop_below t round;
          Hashtbl.filter_map_inplace (fun (r, _) x -> if r < round then None else Some x) m;
          true)
    ops

let prop_round_rows_model name gen_v show ~default =
  QCheck.Test.make ~name:("round_rows agrees with a Hashtbl model: " ^ name) ~count:300
    (QCheck.make ~print:(QCheck.Print.list (rr_print show)) (rr_gen gen_v))
    (rr_agrees ~default)

let prop_round_rows_unit =
  prop_round_rows_model "unit" (QCheck.Gen.return ()) (fun () -> "()") ~default:()

let prop_round_rows_int =
  prop_round_rows_model "int" QCheck.Gen.(0 -- 1_000) string_of_int ~default:(-1)

let prop_round_rows_float =
  prop_round_rows_model "boxed float"
    QCheck.Gen.(map (fun i -> float_of_int i +. 0.5) (0 -- 1_000))
    string_of_float ~default:(-1.0)

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
        Alcotest.test_case "draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "int covers range" `Quick test_rng_int_covers;
        Alcotest.test_case "int rejects zero" `Quick test_rng_int_rejects_zero;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
        Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "basic order" `Quick test_heap_basic_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "peek/length" `Quick test_heap_peek;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        qtest prop_heap_sorts;
        qtest prop_heap_growth;
      ] );
    ( "util.round_rows",
      [
        Alcotest.test_case "basics" `Quick test_round_rows_basics;
        Alcotest.test_case "total lookups" `Quick test_round_rows_total;
        Alcotest.test_case "drop below" `Quick test_round_rows_drop;
        Alcotest.test_case "freed row" `Quick test_round_rows_freed_row;
        Alcotest.test_case "re-made below the horizon" `Quick test_round_rows_remade_below;
        qtest prop_round_rows_alist;
        qtest prop_round_rows_unit;
        qtest prop_round_rows_int;
        qtest prop_round_rows_float;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "add/mem" `Quick test_bitset_add_mem;
        Alcotest.test_case "remove" `Quick test_bitset_remove;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "word boundaries" `Quick test_bitset_word_boundaries;
        Alcotest.test_case "inter cardinal" `Quick test_bitset_inter_cardinal;
        Alcotest.test_case "union into" `Quick test_bitset_union_into;
        Alcotest.test_case "packed bytes" `Quick test_bitset_byte;
        qtest prop_bitset_model;
        qtest prop_bitset_byte_model;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "min/max" `Quick test_stats_minmax;
        Alcotest.test_case "empty is total" `Quick test_stats_empty_total;
        Alcotest.test_case "add after sort" `Quick test_stats_add_after_sort;
        Alcotest.test_case "stddev" `Quick test_stats_stddev;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram bad edges" `Quick test_histogram_bad_edges;
      ] );
    ( "util.hex",
      [
        Alcotest.test_case "encode" `Quick test_hex_encode;
        Alcotest.test_case "decode cases" `Quick test_hex_decode_cases;
        Alcotest.test_case "errors" `Quick test_hex_errors;
        qtest prop_hex_roundtrip;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "escape rule" `Quick test_json_escape;
        Alcotest.test_case "float rule" `Quick test_json_floats;
        Alcotest.test_case "printers" `Quick test_json_printers;
        Alcotest.test_case "parser" `Quick test_json_parser;
        qtest prop_json_total;
        qtest prop_json_roundtrip;
      ] );
  ]
