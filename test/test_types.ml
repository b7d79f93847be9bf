open Clanbft
open Clanbft.Crypto

let qtest = QCheck_alcotest.to_alcotest
let kc = Keychain.create ~seed:123L ~n:16

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_full () =
  let c = Config.make ~n:10 Config.Full in
  Alcotest.(check int) "f" 3 (Config.f c);
  Alcotest.(check int) "quorum" 7 (Config.quorum c);
  Alcotest.(check int) "weak quorum" 4 (Config.weak_quorum c);
  Alcotest.(check bool) "everyone proposes" true (Config.is_block_proposer c 9);
  Alcotest.(check int) "payload clan is the tribe" 10
    (Array.length (Option.get (Config.payload_clan c ~proposer:0)));
  Alcotest.(check int) "no clan echo constraint" 0 (Config.clan_echo_threshold c ~proposer:0);
  Alcotest.(check bool) "everyone executes" true (Config.executes_blocks c 9);
  Alcotest.(check int) "one clan" 1 (Config.clan_count c)

let test_config_single_clan () =
  let clan = [| 1; 3; 5; 7; 9 |] in
  let c = Config.make ~n:10 (Config.Single_clan clan) in
  Alcotest.(check bool) "clan member proposes" true (Config.is_block_proposer c 3);
  Alcotest.(check bool) "outsider does not" false (Config.is_block_proposer c 2);
  Alcotest.(check (list int)) "proposers" [ 1; 3; 5; 7; 9 ] (Config.block_proposers c);
  (* fc of 5 = 2, so the echo threshold is 3 *)
  Alcotest.(check int) "echo threshold fc+1" 3 (Config.clan_echo_threshold c ~proposer:1);
  Alcotest.(check bool) "member stores payload" true (Config.in_payload_clan c ~proposer:1 9);
  Alcotest.(check bool) "outsider does not store" false (Config.in_payload_clan c ~proposer:1 0);
  Alcotest.(check bool) "vertex-only proposer has no payload clan" true
    (Config.payload_clan c ~proposer:2 = None);
  Alcotest.(check bool) "outsider does not execute" false (Config.executes_blocks c 0);
  Alcotest.(check (option int)) "clan_of member" (Some 0) (Config.clan_of c 5);
  Alcotest.(check (option int)) "clan_of outsider" None (Config.clan_of c 0)

let test_config_multi_clan () =
  let c = Config.make ~n:9 (Config.Multi_clan [| [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7; 8 |] |]) in
  Alcotest.(check bool) "all propose" true (Config.is_block_proposer c 8);
  Alcotest.(check int) "clan count" 2 (Config.clan_count c);
  (* proposer 5's payload goes to clan 1 *)
  Alcotest.(check bool) "own clan stores" true (Config.in_payload_clan c ~proposer:5 8);
  Alcotest.(check bool) "other clan does not" false (Config.in_payload_clan c ~proposer:5 0);
  Alcotest.(check int) "fc+1 of clan of 4" 2 (Config.clan_echo_threshold c ~proposer:0);
  Alcotest.(check int) "fc+1 of clan of 5" 3 (Config.clan_echo_threshold c ~proposer:4);
  Alcotest.(check bool) "everyone executes something" true (Config.executes_blocks c 3)

let test_config_leader_rotation () =
  let c = Config.make ~n:7 Config.Full in
  Alcotest.(check int) "round 0" 0 (Config.leader_of_round c 0);
  Alcotest.(check int) "round 8" 1 (Config.leader_of_round c 8)

let test_config_sparse () =
  let p = Config.Sparse { k = 3; seed = 1L } in
  let c = Config.make ~n:16 ~edge_policy:p Config.Full in
  Alcotest.(check bool) "sparse_edges" true (Config.sparse_edges c);
  Alcotest.(check bool) "dense by default" false
    (Config.sparse_edges (Config.make ~n:16 Config.Full));
  (* self + leader + link + k sampled = k + 3 strong edges at most *)
  Alcotest.(check int) "strong cap" 6 (Config.sparse_strong_cap p);
  Alcotest.(check int) "weak cap floor" 16 (Config.sparse_weak_cap p);
  Alcotest.(check int) "weak cap tracks k" 36
    (Config.sparse_weak_cap (Config.Sparse { k = 9; seed = 0L }));
  Alcotest.(check bool) "dense caps unbounded" true
    (Config.sparse_strong_cap Config.Dense = max_int
    && Config.sparse_weak_cap Config.Dense = max_int);
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Config: sparse k must be >= 1") (fun () ->
      ignore
        (Config.make ~n:16
           ~edge_policy:(Config.Sparse { k = 0; seed = 1L })
           Config.Full))

let test_config_validation () =
  Alcotest.check_raises "overlapping clans" (Invalid_argument "Config: clans must be disjoint")
    (fun () ->
      ignore (Config.make ~n:6 (Config.Multi_clan [| [| 0; 1 |]; [| 1; 2 |] |])));
  Alcotest.check_raises "member out of range"
    (Invalid_argument "Config: clan member out of range") (fun () ->
      ignore (Config.make ~n:4 (Config.Single_clan [| 7 |])));
  Alcotest.check_raises "empty clan" (Invalid_argument "Config: empty clan") (fun () ->
      ignore (Config.make ~n:4 (Config.Multi_clan [| [||] |])));
  Alcotest.check_raises "n < 3f+1" (Invalid_argument "Config: need 0 <= f and n >= 3f+1")
    (fun () -> ignore (Config.make ~n:6 ~f:2 Config.Full))

(* ------------------------------------------------------------------ *)
(* Transactions / blocks *)

let mk_txn ?(id = 1) ?(size = 512) () =
  Transaction.make ~id ~client:2 ~created_at:1_000 ~size ()

let test_txn_wire_size () =
  Alcotest.(check int) "wire size" (24 + 512) (Transaction.wire_size (mk_txn ()));
  Alcotest.check_raises "negative size" (Invalid_argument "Transaction.make: negative size")
    (fun () -> ignore (mk_txn ~size:(-1) ()))

let test_block_digest_binding () =
  let txns = Array.init 3 (fun i -> mk_txn ~id:i ()) in
  let b1 = Block.make ~proposer:1 ~round:5 ~txns in
  let b2 = Block.make ~proposer:2 ~round:5 ~txns in
  let b3 = Block.make ~proposer:1 ~round:6 ~txns in
  let b4 = Block.make ~proposer:1 ~round:5 ~txns:(Array.sub txns 0 2) in
  Alcotest.(check bool) "proposer bound" false (Digest32.equal (Block.digest b1) (Block.digest b2));
  Alcotest.(check bool) "round bound" false (Digest32.equal (Block.digest b1) (Block.digest b3));
  Alcotest.(check bool) "content bound" false (Digest32.equal (Block.digest b1) (Block.digest b4));
  let b1' = Block.make ~proposer:1 ~round:5 ~txns in
  Alcotest.(check bool) "deterministic" true (Digest32.equal (Block.digest b1) (Block.digest b1'))

let test_block_wire_size () =
  let b = Block.make ~proposer:1 ~round:5 ~txns:(Array.init 3 (fun i -> mk_txn ~id:i ())) in
  Alcotest.(check int) "wire" (12 + (3 * 536)) (Block.wire_size b);
  Alcotest.(check int) "txn count" 3 (Block.txn_count b)

(* Five shapes of block, from no run to runs that break on every field. *)
let block_shapes =
  let t ~id ~client ~created_at ~size = Transaction.make ~id ~client ~created_at ~size () in
  [
    ("empty", [||]);
    ("single", [| t ~id:7 ~client:3 ~created_at:1_000 ~size:512 |]);
    ("run", Array.init 5 (fun i -> t ~id:(10 + i) ~client:4 ~created_at:2_000 ~size:256));
    ("gap", Array.map (fun id -> t ~id ~client:4 ~created_at:2_000 ~size:256) [| 1; 2; 3; 7; 8 |]);
    ( "alternating",
      Array.init 6 (fun i ->
          t ~id:(20 + i)
            ~client:(1 + (i mod 2))
            ~created_at:(100 * (1 + (i / 2 mod 2)))
            ~size:(if i mod 3 = 0 then 64 else 512)) );
  ]

(* Pinned from the representation that kept one boxed record per
   transaction: packing changes no digest byte and no wire size. *)
let test_block_shapes_pinned () =
  let pins =
    [
      ("empty", "5f880f052d15bf88239e079976494727e07d93ce4021c0770abe1bca807857a9", 12);
      ("single", "6484eef3f9484f26d20311d10cf97b662e009336cc5d042832509dfa79fee254", 548);
      ("run", "b80f827d1b10b895170db164545f290bf98ef55347d3bd6680a1037f550fadbe", 1412);
      ("gap", "9b5f6213c576286a262d7e67f19213cbd546be1f7f9b607925f2883b91bdb1db", 1412);
      ("alternating", "675429b6dcd9983957fdcdd951cbc909bbdd7c5d623e3018cefa150dc013bd26", 2332);
    ]
  in
  List.iter2
    (fun (name, txns) (name', hex, wire) ->
      assert (name = name');
      let b = Block.make ~proposer:5 ~round:9 ~txns in
      Alcotest.(check string) (name ^ " digest") hex (Digest32.to_hex (Block.digest b));
      Alcotest.(check int) (name ^ " wire size") wire (Block.wire_size b))
    block_shapes pins

let same_txns name (a : Transaction.t array) (b : Transaction.t array) =
  Alcotest.(check int) (name ^ " count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Transaction.t) ->
      let y : Transaction.t = b.(i) in
      Alcotest.(check (list int))
        (Printf.sprintf "%s txn %d" name i)
        [ x.id; x.client; x.created_at; x.size ]
        [ y.id; y.client; y.created_at; y.size ])
    a

let test_block_txns_roundtrip () =
  List.iter
    (fun (name, txns) ->
      let b = Block.make ~proposer:5 ~round:9 ~txns in
      same_txns name txns (Block.txns b);
      Alcotest.(check int) (name ^ " txn_count") (Array.length txns) (Block.txn_count b))
    block_shapes

let runs_of b =
  let count = ref 0 in
  Block.iter_runs b (fun ~id:_ ~count:_ ~client:_ ~created_at:_ ~size:_ -> incr count);
  !count

(* What [Runner.generate] proposes: consecutive ids, one client, one
   instant, one size. *)
let test_block_generator_one_run () =
  let txns =
    Array.init 200 (fun i -> Transaction.make ~id:(1_000 + i) ~client:3 ~created_at:5_000 ~size:512 ())
  in
  let b = Block.make ~proposer:3 ~round:4 ~txns in
  Alcotest.(check int) "runs" 1 (runs_of b);
  Alcotest.(check int) "txn count" 200 (Block.txn_count b)

(* No two transactions merge: the packed block still costs no more than
   the boxed layout did, a five-field record over an array of records. *)
let test_block_singletons_no_larger () =
  let txns =
    Array.init 200 (fun i -> Transaction.make ~id:(2 * i) ~client:3 ~created_at:5_000 ~size:512 ())
  in
  let b = Block.make ~proposer:3 ~round:4 ~txns in
  Alcotest.(check int) "runs" 200 (runs_of b);
  let boxed = (b.proposer, b.round, txns, b.digest, b.wire_size) in
  let packed = Obj.reachable_words (Obj.repr b) and parent = Obj.reachable_words (Obj.repr boxed) in
  if packed > parent then Alcotest.failf "packed %d words > boxed %d words" packed parent

(* ------------------------------------------------------------------ *)
(* Vertices *)

let vref_of_slot round source : Vertex.vref =
  { round; source; digest = Digest32.hash_string (Printf.sprintf "%d-%d" round source) }

let test_vertex_edge_validation () =
  Alcotest.check_raises "strong edge wrong round"
    (Invalid_argument "Vertex.make: strong edge must target previous round") (fun () ->
      ignore
        (Vertex.make ~round:5 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[| vref_of_slot 3 0 |] ~weak_edges:[||] ()));
  Alcotest.check_raises "weak edge too recent"
    (Invalid_argument "Vertex.make: weak edge must target round < r-1") (fun () ->
      ignore
        (Vertex.make ~round:5 ~source:0 ~block_digest:Digest32.zero ~strong_edges:[||]
           ~weak_edges:[| vref_of_slot 4 0 |] ()))

let test_vertex_digest_sensitivity () =
  let v1 =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 0 |] ~weak_edges:[||] ()
  in
  let v2 =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 1 |] ~weak_edges:[||] ()
  in
  Alcotest.(check bool) "edges bound into digest" false
    (Digest32.equal v1.Vertex.digest v2.Vertex.digest)

let test_vertex_strong_edge_query () =
  let v =
    Vertex.make ~round:3 ~source:1 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 4 |] ~weak_edges:[||] ()
  in
  Alcotest.(check bool) "has edge" true (Vertex.has_strong_edge_to v ~round:2 ~source:4);
  Alcotest.(check bool) "no edge" false (Vertex.has_strong_edge_to v ~round:2 ~source:3);
  Alcotest.(check bool) "wrong round" false (Vertex.has_strong_edge_to v ~round:1 ~source:0)

let test_vertex_compact_form () =
  let strong = [| vref_of_slot 2 0; vref_of_slot 2 3; vref_of_slot 2 7 |] in
  let weak = [| vref_of_slot 0 6; vref_of_slot 1 5 |] in
  let mk compact =
    Vertex.make ~round:3 ~source:2 ~block_digest:Digest32.zero
      ~strong_edges:strong ~weak_edges:weak ~compact ()
  in
  let dense = mk false and compact = mk true in
  Alcotest.(check bool) "compact strictly smaller on the wire" true
    (Vertex.wire_size ~n:16 compact < Vertex.wire_size ~n:16 dense);
  (* The content digest names the vertex, not its encoding: both
     representations of the same fields share one identity. *)
  Alcotest.(check bool) "digest representation-independent" true
    (Digest32.equal dense.Vertex.digest compact.Vertex.digest);
  let enc = Codec.encode_vertex ~n:16 compact in
  Alcotest.(check int) "wire_size = encode length"
    (Vertex.wire_size ~n:16 compact)
    (String.length enc);
  let v' = Codec.decode_vertex ~n:16 ~compact:true enc in
  Alcotest.(check bool) "round-trip digest" true
    (Digest32.equal compact.Vertex.digest v'.Vertex.digest);
  Alcotest.(check bool) "round-trip stays compact" true v'.Vertex.compact;
  Alcotest.(check string) "re-encode byte-identical" enc
    (Codec.encode_vertex ~n:16 v')

let test_vertex_compact_validation () =
  Alcotest.check_raises "unsorted strong edges"
    (Invalid_argument "Vertex.make: compact strong edges must ascend by source")
    (fun () ->
      ignore
        (Vertex.make ~round:3 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[| vref_of_slot 2 4; vref_of_slot 2 1 |]
           ~weak_edges:[||] ~compact:true ()));
  Alcotest.check_raises "unsorted weak edges"
    (Invalid_argument "Vertex.make: compact weak edges must ascend by (round, source)")
    (fun () ->
      ignore
        (Vertex.make ~round:3 ~source:0 ~block_digest:Digest32.zero
           ~strong_edges:[||]
           ~weak_edges:[| vref_of_slot 1 5; vref_of_slot 0 2 |]
           ~compact:true ()))

let test_vertex_id_order () =
  Alcotest.(check bool) "round first" true (Vertex.Id.compare (1, 9) (2, 0) < 0);
  Alcotest.(check bool) "source second" true (Vertex.Id.compare (2, 1) (2, 3) < 0);
  Alcotest.(check int) "equal" 0 (Vertex.Id.compare (2, 3) (2, 3))

(* ------------------------------------------------------------------ *)
(* Certificates *)

let shares kind round signers =
  List.map (fun i -> (i, Keychain.sign kc ~signer:i (Cert.signing_string kind round))) signers

let test_cert_roundtrip () =
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.Timeout 4 [ 0; 1; 2; 3; 4 ])) in
  Alcotest.(check bool) "verifies at quorum 5" true (Cert.verify kc ~quorum:5 c);
  Alcotest.(check bool) "fails at quorum 6" false (Cert.verify kc ~quorum:6 c);
  Alcotest.(check int) "signer count" 5 (Cert.signer_count c)

let test_cert_wrong_round_shares () =
  (* Shares for round 3 aggregated into a round-4 certificate don't verify. *)
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.Timeout 3 [ 0; 1; 2 ])) in
  Alcotest.(check bool) "invalid" false (Cert.verify kc ~quorum:3 c)

let test_cert_kind_separation () =
  (* No-vote shares cannot stand in for timeout shares. *)
  let c = Option.get (Cert.make kc Cert.Timeout ~round:4 (shares Cert.No_vote 4 [ 0; 1; 2 ])) in
  Alcotest.(check bool) "invalid" false (Cert.verify kc ~quorum:3 c)

(* ------------------------------------------------------------------ *)
(* Messages and codec *)

let sample_block = Block.make ~proposer:2 ~round:3 ~txns:(Array.init 4 (fun i -> mk_txn ~id:i ()))

let sample_vertex ?(nvc = false) ?(tc = false) () =
  let nvc =
    if nvc then Some (Option.get (Cert.make kc Cert.No_vote ~round:2 (shares Cert.No_vote 2 [ 0; 1; 2 ])))
    else None
  in
  let tc =
    if tc then Some (Option.get (Cert.make kc Cert.Timeout ~round:2 (shares Cert.Timeout 2 [ 3; 4; 5 ])))
    else None
  in
  Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
    ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
    ~weak_edges:[| vref_of_slot 1 5 |] ?nvc ?tc ()

let sample_msgs () =
  let v = sample_vertex ~nvc:true ~tc:true () in
  let sg = Keychain.sign kc ~signer:2 "sig" in
  let agg = Option.get (Keychain.aggregate kc [ (0, Keychain.sign kc ~signer:0 "m") ]) in
  [
    Msg.Val { vertex = v; block = Some sample_block; signature = sg };
    Msg.Val { vertex = sample_vertex (); block = None; signature = sg };
    Msg.Echo { round = 3; source = 2; vertex_digest = v.Vertex.digest; signer = 1; signature = sg };
    Msg.Echo_cert { round = 3; source = 2; vertex_digest = v.Vertex.digest; agg; clan_echoes = 5 };
    Msg.Timeout_share { round = 9; signer = 4; signature = sg };
    Msg.No_vote_share { round = 9; signer = 4; signature = sg };
    Msg.Timeout_cert (Option.get (Cert.make kc Cert.Timeout ~round:7 (shares Cert.Timeout 7 [ 0; 1; 2 ])));
    Msg.Block_request { round = 3; source = 2 };
    Msg.Block_reply { block = sample_block };
    Msg.Vertex_request { round = 3; source = 2 };
    Msg.Vertex_reply { vertex = v; block = Some sample_block };
  ]

let test_wire_size_matches_codec () =
  List.iter
    (fun m ->
      Alcotest.(check int) (Msg.tag m) (Msg.wire_size ~n:16 m)
        (String.length (Codec.encode ~n:16 m)))
    (sample_msgs ())

let test_codec_roundtrip () =
  List.iter
    (fun m ->
      let enc = Codec.encode ~n:16 m in
      let dec = Codec.decode ~n:16 enc in
      Alcotest.(check string) (Msg.tag m) enc (Codec.encode ~n:16 dec))
    (sample_msgs ())

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "bad tag raises" true
    (match Codec.decode ~n:16 "\xff" with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "truncated raises" true
    (match Codec.decode ~n:16 (String.sub (Codec.encode ~n:16 (List.hd (sample_msgs ()))) 0 10) with
    | exception Codec.Decode_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "trailing bytes raise" true
    (match Codec.decode ~n:16 (Codec.encode ~n:16 (Msg.Block_request { round = 1; source = 2 }) ^ "x") with
    | exception Codec.Decode_error _ -> true
    | _ -> false)

let test_codec_compact_val_roundtrip () =
  let v =
    Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
      ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
      ~weak_edges:[| vref_of_slot 1 5 |] ~compact:true ()
  in
  let sg = Keychain.sign kc ~signer:2 "sig" in
  let m = Msg.Val { vertex = v; block = Some sample_block; signature = sg } in
  let enc = Codec.encode ~n:16 m in
  Alcotest.(check int) "wire_size = encode length" (Msg.wire_size ~n:16 m)
    (String.length enc);
  let dec = Codec.decode ~n:16 ~compact:true enc in
  Alcotest.(check string) "roundtrip" enc (Codec.encode ~n:16 dec);
  (* A compact VAL is strictly smaller than the dense encoding of the
     same vertex. *)
  let dense =
    Msg.Val
      {
        vertex =
          Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
            ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
            ~weak_edges:[| vref_of_slot 1 5 |] ();
        block = Some sample_block;
        signature = sg;
      }
  in
  Alcotest.(check bool) "compact < dense" true
    (Msg.wire_size ~n:16 m < Msg.wire_size ~n:16 dense)

let test_vertex_block_codec_roundtrip () =
  let v = sample_vertex ~tc:true () in
  let v' = Codec.decode_vertex ~n:16 (Codec.encode_vertex ~n:16 v) in
  Alcotest.(check bool) "vertex digest preserved" true (Digest32.equal v.Vertex.digest v'.Vertex.digest);
  let b' = Codec.decode_block (Codec.encode_block sample_block) in
  Alcotest.(check bool) "block digest preserved" true
    (Digest32.equal (Block.digest sample_block) (Block.digest b'))

let prop_codec_block_roundtrip =
  QCheck.Test.make ~name:"random blocks round-trip" ~count:100
    QCheck.(pair (int_range 0 15) (list_of_size (QCheck.Gen.int_range 0 20) (int_range 0 2048)))
    (fun (proposer, sizes) ->
      let txns =
        Array.of_list
          (List.mapi (fun i size -> Transaction.make ~id:i ~client:proposer ~created_at:i ~size ()) sizes)
      in
      let b = Block.make ~proposer ~round:1 ~txns in
      let b' = Codec.decode_block (Codec.encode_block b) in
      Digest32.equal (Block.digest b) (Block.digest b')
      && Block.wire_size b = String.length (Codec.encode_block b))

(* Field-wise vertex equality, as the codec sees it. Certificates compare
   by their wire bytes: a decoded aggregate lacks the constituent shares
   the simulation keeps beside it, which never travel. *)
let same_vertex ~n (a : Vertex.t) (b : Vertex.t) =
  let cert = Option.map (fun c -> Codec.encode ~n (Msg.Timeout_cert c)) in
  a.round = b.round && a.source = b.source
  && Digest32.equal a.block_digest b.block_digest
  && a.strong_edges = b.strong_edges && a.weak_edges = b.weak_edges
  && a.compact = b.compact
  && Digest32.equal a.digest b.digest
  && a.base_wire_size = b.base_wire_size
  && cert a.nvc = cert b.nvc && cert a.tc = cert b.tc

(* Random vertices in both layouts, with and without nvc/tc certificates.
   Edge lists are sorted and duplicate-free, as the compact form demands;
   the dense form takes them as they come. *)
let gen_vertex =
  let open QCheck.Gen in
  let* n = int_range 4 40 in
  let* round = int_range 1 1000 in
  let* source = int_range 0 (n - 1) in
  let* compact = bool in
  let sources = map (List.sort_uniq compare) (list_size (int_range 0 n) (int_range 0 (n - 1))) in
  let* strong = sources in
  let* weak =
    if round < 2 then return []
    else
      map (List.sort_uniq compare)
        (list_size (int_range 0 6) (pair (int_range 0 (round - 2)) (int_range 0 (n - 1))))
  in
  let keys = Keychain.create ~seed:7L ~n in
  let cert kind =
    let* present = bool in
    if not present then return None
    else
      let+ signers = map (List.sort_uniq compare) (list_size (int_range 1 n) (int_range 0 (n - 1))) in
      let share i = (i, Keychain.sign keys ~signer:i (Cert.signing_string kind (round - 1))) in
      Cert.make keys kind ~round:(round - 1) (List.map share signers)
  in
  let* nvc = cert Cert.No_vote in
  let+ tc = cert Cert.Timeout in
  ( n,
    Vertex.make ~round ~source
      ~block_digest:(Digest32.hash_string (string_of_int round))
      ~strong_edges:(Array.of_list (List.map (vref_of_slot (round - 1)) strong))
      ~weak_edges:(Array.of_list (List.map (fun (r, s) -> vref_of_slot r s) weak))
      ~compact ?nvc ?tc () )

let prop_codec_vertex_roundtrip =
  QCheck.Test.make ~name:"random vertices: wire_size = encode length, round-trip" ~count:300
    (QCheck.make ~print:(fun (n, v) -> Format.asprintf "n=%d %a" n Vertex.pp v) gen_vertex)
    (fun (n, v) ->
      let enc = Codec.encode_vertex ~n v in
      Vertex.wire_size ~n v = String.length enc
      && same_vertex ~n v (Codec.decode_vertex ~n ~compact:v.compact enc))

(* ------------------------------------------------------------------ *)
(* Decoder totality: whatever bytes a Byzantine peer sends, the only
   exception a decoder may raise is [Decode_error]. *)

let decoders =
  [
    (fun s -> ignore (Codec.decode ~n:16 s));
    (fun s -> ignore (Codec.decode ~n:16 ~compact:true s));
    (fun s -> ignore (Codec.decode_vertex ~n:16 s));
    (fun s -> ignore (Codec.decode_vertex ~n:16 ~compact:true s));
    (fun s -> ignore (Codec.decode_block s));
  ]

(* Any other exception escapes and fails the property. *)
let decoders_total s =
  List.iter
    (fun decode -> try decode s with Codec.Decode_error _ -> ())
    decoders;
  true

(* Valid encodings to mutate: every message kind, both vertex layouts, and
   the standalone vertex and block forms. *)
let corpus =
  let compact =
    Vertex.make ~round:3 ~source:2 ~block_digest:(Block.digest sample_block)
      ~strong_edges:[| vref_of_slot 2 0; vref_of_slot 2 1 |]
      ~weak_edges:[| vref_of_slot 1 5 |] ~compact:true ()
  in
  let sg = Keychain.sign kc ~signer:2 "sig" in
  Array.of_list
    (List.map (Codec.encode ~n:16)
       (Msg.Val { vertex = compact; block = Some sample_block; signature = sg }
       :: sample_msgs ())
    @ [
        Codec.encode_vertex ~n:16 (sample_vertex ~nvc:true ~tc:true ());
        Codec.encode_vertex ~n:16 compact;
        Codec.encode_block sample_block;
      ])

let gen_corpus_entry = QCheck.Gen.(map (Array.get corpus) (int_bound (Array.length corpus - 1)))

let prop_decode_random_bytes =
  QCheck.Test.make ~name:"decoders total on random bytes" ~count:2000
    QCheck.(pair (int_range 0 12) (string_gen_of_size Gen.(int_range 0 300) Gen.char))
    (fun (tag, body) ->
      decoders_total body && decoders_total (String.make 1 (Char.chr tag) ^ body))

let prop_decode_truncations =
  QCheck.Test.make ~name:"decoders total on truncations" ~count:1000
    (QCheck.make QCheck.Gen.(pair gen_corpus_entry (float_bound_exclusive 1.)))
    (fun (enc, frac) ->
      decoders_total (String.sub enc 0 (int_of_float (frac *. float (String.length enc)))))

let prop_decode_bit_flips =
  QCheck.Test.make ~name:"decoders total on single-bit flips" ~count:2000
    (QCheck.make QCheck.Gen.(triple gen_corpus_entry (float_bound_exclusive 1.) (int_bound 7)))
    (fun (enc, frac, bit) ->
      let b = Bytes.of_string enc in
      let i = int_of_float (frac *. float (Bytes.length b)) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      decoders_total (Bytes.to_string b))

let put_u32 b pos v =
  Bytes.set b pos (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 3) (Char.chr (v land 0xff))

let with_u32 s pos v =
  let b = Bytes.of_string s in
  put_u32 b pos v;
  Bytes.to_string b

let rejects decode s =
  match decode s with _ -> false | exception Codec.Decode_error _ -> true

(* A count of 0xFFFFFFFF followed by one valid element must fail with
   [Decode_error], not ask for 2^32 slots. *)
let test_decode_oversized_counts () =
  let one_txn = Block.make ~proposer:2 ~round:3 ~txns:[| mk_txn ~id:1 () |] in
  let block = Codec.encode_block one_txn in
  (* proposer, round, then the txn count *)
  Alcotest.(check bool) "block txn count" true
    (rejects Codec.decode_block (with_u32 block 8 0xFFFFFFFF));
  let reply = Codec.encode ~n:16 (Msg.Block_reply { block = one_txn }) in
  Alcotest.(check bool) "block_reply txn count" true
    (rejects (Codec.decode ~n:16) (with_u32 reply 9 0xFFFFFFFF));
  let v =
    Vertex.make ~round:3 ~source:2 ~block_digest:Digest32.zero
      ~strong_edges:[| vref_of_slot 2 0 |] ~weak_edges:[| vref_of_slot 1 5 |] ()
  in
  let vertex = Codec.encode_vertex ~n:16 v in
  (* round, source, block digest, then the dense strong-edge count; the
     weak count follows the one 40-byte strong edge *)
  let strong_at = 4 + 4 + Digest32.size in
  let weak_at = strong_at + 4 + 4 + 4 + Digest32.size in
  Alcotest.(check bool) "strong edge count" true
    (rejects (Codec.decode_vertex ~n:16) (with_u32 vertex strong_at 0xFFFFFFFF));
  Alcotest.(check bool) "weak edge count" true
    (rejects (Codec.decode_vertex ~n:16) (with_u32 vertex weak_at 0xFFFFFFFF))

(* A block of several runs survives the codec field for field, and every
   proper prefix of its encoding is an error. *)
let test_codec_mixed_runs () =
  let txns = Array.concat (List.map snd block_shapes) in
  let b = Block.make ~proposer:5 ~round:9 ~txns in
  let enc = Codec.encode_block b in
  Alcotest.(check int) "encoded length" (Block.wire_size b) (String.length enc);
  let b' = Codec.decode_block enc in
  Alcotest.(check bool) "digest" true (Digest32.equal (Block.digest b) (Block.digest b'));
  same_txns "decoded" txns (Block.txns b');
  Alcotest.(check bool) "truncated by one byte" true
    (rejects Codec.decode_block (String.sub enc 0 (String.length enc - 1)));
  Alcotest.(check bool) "truncated inside the first txn header" true
    (rejects Codec.decode_block (String.sub enc 0 20))

let prop_decode_oversized_counts =
  QCheck.Test.make ~name:"decoders total on forged counts" ~count:1000
    QCheck.(pair (int_range 0 2) (int_range 0 0xFFFFFFFF))
    (fun (field, count) ->
      let block = Codec.encode_block sample_block in
      let vertex = Codec.encode_vertex ~n:16 (sample_vertex ()) in
      let strong_at = 4 + 4 + Digest32.size in
      let s =
        match field with
        | 0 -> with_u32 block 8 count
        | 1 -> with_u32 vertex strong_at count
        | _ -> with_u32 vertex (strong_at + 4 + (2 * (8 + Digest32.size))) count
      in
      decoders_total s)

let suites =
  [
    ( "types.config",
      [
        Alcotest.test_case "full mode" `Quick test_config_full;
        Alcotest.test_case "single clan" `Quick test_config_single_clan;
        Alcotest.test_case "multi clan" `Quick test_config_multi_clan;
        Alcotest.test_case "leader rotation" `Quick test_config_leader_rotation;
        Alcotest.test_case "sparse policy" `Quick test_config_sparse;
        Alcotest.test_case "validation" `Quick test_config_validation;
      ] );
    ( "types.block",
      [
        Alcotest.test_case "txn wire size" `Quick test_txn_wire_size;
        Alcotest.test_case "digest binding" `Quick test_block_digest_binding;
        Alcotest.test_case "block wire size" `Quick test_block_wire_size;
        Alcotest.test_case "digest and wire size pinned" `Quick test_block_shapes_pinned;
        Alcotest.test_case "txns round-trip" `Quick test_block_txns_roundtrip;
        Alcotest.test_case "generator block is one run" `Quick test_block_generator_one_run;
        Alcotest.test_case "singleton runs no larger" `Quick test_block_singletons_no_larger;
      ] );
    ( "types.vertex",
      [
        Alcotest.test_case "edge validation" `Quick test_vertex_edge_validation;
        Alcotest.test_case "digest sensitivity" `Quick test_vertex_digest_sensitivity;
        Alcotest.test_case "strong edge query" `Quick test_vertex_strong_edge_query;
        Alcotest.test_case "compact form" `Quick test_vertex_compact_form;
        Alcotest.test_case "compact validation" `Quick test_vertex_compact_validation;
        Alcotest.test_case "id order" `Quick test_vertex_id_order;
      ] );
    ( "types.cert",
      [
        Alcotest.test_case "roundtrip" `Quick test_cert_roundtrip;
        Alcotest.test_case "wrong round shares" `Quick test_cert_wrong_round_shares;
        Alcotest.test_case "kind separation" `Quick test_cert_kind_separation;
      ] );
    ( "types.codec",
      [
        Alcotest.test_case "wire_size = encode length" `Quick test_wire_size_matches_codec;
        Alcotest.test_case "roundtrip all messages" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "compact VAL roundtrip" `Quick test_codec_compact_val_roundtrip;
        Alcotest.test_case "vertex/block standalone" `Quick test_vertex_block_codec_roundtrip;
        qtest prop_codec_block_roundtrip;
        qtest prop_codec_vertex_roundtrip;
      ] );
    ( "types.codec.fuzz",
      [
        Alcotest.test_case "oversized counts" `Quick test_decode_oversized_counts;
        Alcotest.test_case "mixed-run block" `Quick test_codec_mixed_runs;
        qtest prop_decode_random_bytes;
        qtest prop_decode_truncations;
        qtest prop_decode_bit_flips;
        qtest prop_decode_oversized_counts;
      ] );
  ]
