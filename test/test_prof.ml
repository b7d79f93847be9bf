open Clanbft
module Stats = Util.Stats

(* ------------------------------------------------------------------ *)
(* Prof: nesting, attribution, determinism. All profiler state is global,
   so every test starts from set_enabled + reset and ends disabled. *)

let with_prof f =
  Prof.set_enabled true;
  Prof.reset ();
  Fun.protect ~finally:(fun () -> Prof.set_enabled false) f

let row name =
  match List.find_opt (fun r -> r.Prof.name = name) (Prof.report ()) with
  | Some r -> r
  | None -> Alcotest.failf "no report row for section %s" name

let sec_outer = Prof.section "test.outer"
let sec_inner = Prof.section "test.inner"
let sec_alloc = Prof.section "test.alloc"
let sec_alloc2 = Prof.section "test.alloc2"

(* A little deterministic work so spans have non-trivial windows. *)
let churn n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc + (i * i)
  done;
  ignore (Sys.opaque_identity !acc)

let test_nesting () =
  with_prof (fun () ->
      Prof.enter sec_outer;
      churn 1000;
      Prof.enter sec_inner;
      churn 1000;
      Prof.leave sec_inner;
      Prof.enter sec_inner;
      Prof.leave sec_inner;
      Prof.leave sec_outer;
      Prof.enter sec_outer;
      Prof.leave sec_outer;
      let o = row "test.outer" and i = row "test.inner" in
      Alcotest.(check int) "outer calls" 2 o.Prof.calls;
      Alcotest.(check int) "inner calls" 2 i.Prof.calls;
      (* Exclusive + children's inclusive = inclusive, exactly: self is
         computed per span as incl minus the sum of child incl, and both
         inner spans sit inside the first outer span. *)
      Alcotest.(check int) "time attribution closes" o.Prof.incl_ns
        (o.Prof.self_ns + i.Prof.incl_ns);
      Alcotest.(check int) "words attribution closes" o.Prof.incl_minor_words
        (o.Prof.self_minor_words + i.Prof.incl_minor_words);
      Alcotest.(check bool) "incl covers self" true
        (o.Prof.incl_ns >= o.Prof.self_ns))

let test_recursion_folds () =
  with_prof (fun () ->
      Prof.enter sec_outer;
      Prof.enter sec_outer;
      Prof.leave sec_outer;
      Prof.leave sec_outer;
      let o = row "test.outer" in
      Alcotest.(check int) "both spans counted" 2 o.Prof.calls;
      (* Inclusive folds recursive re-entries into the outermost span, so
         self (summed over both spans) never exceeds it. *)
      Alcotest.(check bool) "no double-counted inclusive" true
        (o.Prof.incl_ns >= o.Prof.self_ns))

let test_alloc_attribution () =
  with_prof (fun () ->
      (* Each span forces a minor collection before closing, so its
         window also holds a small GC-stub residue. A 99-element float
         array is 100 words, so the ten-extra-arrays differential between
         the two spans isolates 1000 words with the residue cancelled. *)
      let alloc_k k =
        for _ = 1 to k do
          ignore (Sys.opaque_identity (Array.make 99 0.))
        done
      in
      Gc.minor ();
      Prof.enter sec_alloc;
      alloc_k 1;
      Gc.minor ();
      Prof.leave sec_alloc;
      Prof.enter sec_alloc2;
      alloc_k 11;
      Gc.minor ();
      Prof.leave sec_alloc2;
      let a = row "test.alloc" and b = row "test.alloc2" in
      Alcotest.(check int) "one call" 1 a.Prof.calls;
      Alcotest.(check bool) "span captures its own allocation" true
        (a.Prof.self_minor_words >= 100 && a.Prof.self_minor_words <= 500);
      let diff = b.Prof.self_minor_words - a.Prof.self_minor_words in
      if abs (diff - 1000) > 40 then
        Alcotest.failf
          "differential attribution off: %d words (expect ~1000)" diff)

let test_determinism () =
  let workload () =
    (* Drain the young heap so both repetitions start from the same GC
       phase — the contract is same-seed cross-run determinism, which a
       same-process repetition only reproduces from a clean slate. *)
    Gc.minor ();
    Prof.reset ();
    for _ = 1 to 50 do
      Prof.enter sec_outer;
      ignore (Sys.opaque_identity (Array.make 15 0));
      Prof.span sec_inner (fun () ->
          ignore (Sys.opaque_identity (String.make 64 'x')));
      Prof.leave sec_outer
    done;
    let o = row "test.outer" and i = row "test.inner" in
    ( o.Prof.calls,
      o.Prof.self_minor_words,
      o.Prof.incl_minor_words,
      i.Prof.calls,
      i.Prof.self_minor_words )
  in
  with_prof (fun () ->
      let a = workload () in
      let b = workload () in
      Alcotest.(check bool) "counts and words replay byte-identically" true
        (a = b);
      (* The JSON export carries the same rows under its schema tag. *)
      let module Json = Clanbft.Util.Json in
      match Json.of_string (Prof.to_json ~census:[ ("dag.store", 1) ] ()) with
      | Error e -> Alcotest.failf "profile json does not parse: %s" e
      | Ok doc ->
          Alcotest.(check bool) "schema" true
            (Json.member "schema" doc = Some (Json.String "clanbft/profile/v1"));
          let names key field =
            match Json.member key doc with
            | Some (Json.List rows) -> List.filter_map (Json.member field) rows
            | _ -> []
          in
          Alcotest.(check bool) "sections listed" true
            (List.mem (Json.String "test.outer") (names "sections" "name"));
          Alcotest.(check bool) "census listed" true
            (names "census" "subsystem" = [ Json.String "dag.store" ]))

let test_span_exception_safe () =
  with_prof (fun () ->
      (try Prof.span sec_outer (fun () -> failwith "boom")
       with Failure _ -> ());
      (* The span closed despite the raise: the stack is balanced, so a
         fresh top-level span works and the report holds both calls. *)
      Prof.span sec_outer (fun () -> ());
      Alcotest.(check int) "both spans recorded" 2 (row "test.outer").Prof.calls)

let test_disabled_is_inert () =
  Prof.set_enabled false;
  Prof.reset ();
  Prof.enter sec_outer;
  Prof.leave sec_outer;
  Prof.span sec_inner (fun () -> ());
  Alcotest.(check int) "disabled probes record nothing" 0
    (List.length (Prof.report ()))

let test_folded_output () =
  with_prof (fun () ->
      Prof.enter sec_outer;
      Prof.span sec_inner (fun () -> churn 100);
      Prof.leave sec_outer;
      let folded = Prof.folded () in
      Alcotest.(check bool) "has nested path" true
        (String.split_on_char '\n' folded
        |> List.exists (fun l ->
               String.length l > 0
               && String.starts_with ~prefix:"test.outer;test.inner " l));
      (* Every non-empty line is "path <self_us>". *)
      String.split_on_char '\n' folded
      |> List.iter (fun l ->
             if l <> "" then
               match String.split_on_char ' ' l with
               | [ path; us ] ->
                   Alcotest.(check bool) "path non-empty" true (path <> "");
                   Alcotest.(check bool) "count parses" true
                     (int_of_string_opt us <> None)
               | _ -> Alcotest.failf "malformed folded line %S" l))

(* ------------------------------------------------------------------ *)
(* Stats.Histogram boundary behaviour *)

let test_histogram_boundaries () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 2.0; 4.0 |] in
  (* A sample exactly on an upper edge belongs to that edge's bucket. *)
  Stats.Histogram.observe h 1.0;
  Stats.Histogram.observe h 2.0;
  Stats.Histogram.observe h 2.5;
  Stats.Histogram.observe h 4.0;
  Stats.Histogram.observe h 4.0001;
  let pairs = Stats.Histogram.buckets h in
  Alcotest.(check (array (pair (float 0.0) int)))
    "edge samples land in their bucket"
    [| (1.0, 1); (2.0, 1); (4.0, 2); (Float.infinity, 1) |]
    pairs;
  let cum = Stats.Histogram.cumulative h in
  Alcotest.(check (array (pair (float 0.0) int)))
    "cumulative running totals"
    [| (1.0, 1); (2.0, 2); (4.0, 4); (Float.infinity, 5) |]
    cum;
  Alcotest.(check int) "count" 5 (Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 13.5001 (Stats.Histogram.sum h);
  (* Quantiles are bucket upper bounds; the overflow bucket reports inf. *)
  Alcotest.(check (float 0.0)) "median upper bound" 2.0
    (Stats.Histogram.quantile h 0.4);
  Alcotest.(check (float 0.0)) "q1.0 hits overflow" Float.infinity
    (Stats.Histogram.quantile h 1.0)

let test_histogram_empty_and_degenerate () =
  let h = Stats.Histogram.create ~buckets:[| 1.0; 2.0 |] in
  Alcotest.(check int) "empty count" 0 (Stats.Histogram.count h);
  Alcotest.(check bool) "empty mean is nan" true
    (Float.is_nan (Stats.Histogram.mean h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Stats.Histogram.quantile h 0.5));
  (* No explicit edges: everything lands in the implicit overflow. *)
  let all = Stats.Histogram.create ~buckets:[||] in
  Stats.Histogram.observe all 42.0;
  Alcotest.(check (array (pair (float 0.0) int)))
    "overflow only"
    [| (Float.infinity, 1) |]
    (Stats.Histogram.buckets all);
  Alcotest.check_raises "edges must strictly increase"
    (Invalid_argument "Stats.Histogram.create: edges must be strictly increasing")
    (fun () -> ignore (Stats.Histogram.create ~buckets:[| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Metrics histogram JSON export: Prometheus count/sum/+inf round-trip *)

let test_metrics_histogram_json () =
  let module Json = Clanbft.Util.Json in
  let reg = Metrics.create_registry () in
  let h = Metrics.histogram reg ~buckets:[| 1.0; 2.0 |] "latency_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0 ];
  let metric =
    match Json.of_string (Metrics.to_json reg) with
    | Ok doc -> (
        match Json.member "metrics" doc with
        | Some (Json.List [ m ]) -> m
        | _ -> Alcotest.fail "expected one metric")
    | Error e -> Alcotest.failf "export does not parse: %s" e
  in
  let has key want =
    Alcotest.(check string) key (Json.to_string want)
      (Option.fold ~none:"<absent>" ~some:Json.to_string (Json.member key metric))
  in
  let buckets counts =
    Json.List
      (List.map2
         (fun le count -> Json.Obj [ ("le", le); ("count", Json.Int count) ])
         [ Json.Int 1; Json.Int 2; Json.String "+inf" ]
         counts)
  in
  has "count" (Json.Int 3);
  has "sum" (Json.Float 4.5);
  has "buckets" (buckets [ 2; 0; 1 ]);
  (* The cumulative array's +inf count equals the total count, so external
     tools can recompute quantiles from the export alone. *)
  has "cumulative" (buckets [ 2; 2; 3 ])

(* Prof.census on hand-built values: the words are exact (header plus
   fields per block), and a block two rows reach goes to the first. *)
let test_census_charging () =
  let shared = Array.make 10 0 in
  let a = (shared, Array.make 4 0) and b = [| shared |] in
  let check msg want rows = Alcotest.(check (list (pair string int))) msg want (Prof.census rows) in
  check "shared array charged to a" [ ("a", 3 + 11 + 5); ("b", 2); ("none", 0) ]
    [ ("a", [ Obj.repr a ]); ("b", [ Obj.repr b ]); ("none", []) ];
  check "shared array charged to b" [ ("b", 2 + 11); ("a", 3 + 5) ]
    [ ("b", [ Obj.repr b ]); ("a", [ Obj.repr a ]) ];
  check "a root listed twice counts once" [ ("ab", 3 + 11 + 5 + 2) ]
    [ ("ab", [ Obj.repr a; Obj.repr b; Obj.repr a ]) ]

let census_spec ~n ~load ~duration ~warmup =
  {
    Runner.default_spec with
    n;
    protocol = Runner.Full;
    txns_per_proposal = load;
    duration = Sim.Time.s duration;
    warmup = Sim.Time.s warmup;
    seed = 7L;
  }

let profiled_census spec =
  let r = with_prof (fun () -> Runner.run spec) in
  Alcotest.(check bool) "agreement" true r.Runner.agreement;
  r.Runner.census

(* The census may not describe more heap than the process ever had: every
   row is measured, and a value several replicas share is charged once. *)
let test_census_within_top_heap spec () =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 (profiled_census spec) in
  let top = (Gc.quick_stat ()).top_heap_words in
  Alcotest.(check bool)
    (Printf.sprintf "census total %d <= top heap %d words" total top)
    true (total <= top)

let test_census_deterministic () =
  let spec = census_spec ~n:16 ~load:500 ~duration:1. ~warmup:0.5 in
  let a = profiled_census spec in
  Alcotest.(check (list (pair string int))) "same seed, same rows" a (profiled_census spec)

let test_census_needs_profiler () =
  Prof.set_enabled false;
  let r = Runner.run (census_spec ~n:16 ~load:500 ~duration:1. ~warmup:0.5) in
  Alcotest.(check (list (pair string int))) "no census" [] r.Runner.census

(* A generated proposal allocates no transaction records: at load 6000 a
   boxed generator spent about 51,800 minor words per [sailfish.propose]
   call (6,000 five-word records and their array), one packed run about
   9,800 (the vertex, its signature and the sends). *)
let test_propose_allocation_bound () =
  let spec = census_spec ~n:4 ~load:6000 ~duration:2. ~warmup:0.5 in
  with_prof (fun () ->
      let r = Runner.run { spec with seed = 1L; topology = `Uniform 10. } in
      Alcotest.(check bool) "agreement" true r.Runner.agreement;
      let p = row "sailfish.propose" in
      let per_call = p.Prof.self_minor_words / p.Prof.calls in
      if per_call > 15_000 then
        Alcotest.failf "sailfish.propose: %d self minor words per call > 15,000" per_call)

let suites =
  [
    ( "obs.prof",
      [
        Alcotest.test_case "nesting attribution" `Quick test_nesting;
        Alcotest.test_case "recursion folds inclusive" `Quick test_recursion_folds;
        Alcotest.test_case "allocation attribution" `Quick test_alloc_attribution;
        Alcotest.test_case "deterministic counts/words" `Quick test_determinism;
        Alcotest.test_case "span is exception-safe" `Quick test_span_exception_safe;
        Alcotest.test_case "disabled is inert" `Quick test_disabled_is_inert;
        Alcotest.test_case "folded stacks" `Quick test_folded_output;
        Alcotest.test_case "census charging" `Quick test_census_charging;
        Alcotest.test_case "census within top heap" `Slow
          (test_census_within_top_heap
             (census_spec ~n:16 ~load:500 ~duration:3. ~warmup:1.));
        Alcotest.test_case "census within heap n=50" `Slow
          (test_census_within_top_heap
             (census_spec ~n:50 ~load:200 ~duration:2. ~warmup:0.5));
        Alcotest.test_case "census deterministic" `Slow test_census_deterministic;
        Alcotest.test_case "census needs profiler" `Quick test_census_needs_profiler;
        Alcotest.test_case "propose allocation bound" `Slow test_propose_allocation_bound;
      ] );
    ( "stats.histogram",
      [
        Alcotest.test_case "bucket boundaries" `Quick test_histogram_boundaries;
        Alcotest.test_case "empty and degenerate" `Quick test_histogram_empty_and_degenerate;
        Alcotest.test_case "metrics json round-trip" `Quick test_metrics_histogram_json;
      ] );
  ]
