open Clanbft
open Clanbft.Sim
open Clanbft.Crypto

let clan = [| 0; 2; 4; 6; 8 |]

(* n nodes over a uniform 10 ms network; [byzantine] ids are silent
   occupants, so tests can drive them by injecting raw messages. *)
let make_world ?(n = 10) ?(byzantine = []) protocol =
  Rbc_world.create ~topology:(Topology.uniform ~n ~one_way_ms:10.0)
    ~config:{ Net.default_config with jitter = 0.0 } ~seed:7L ~clan
    ~adversaries:(List.map (fun node -> { Strategy.node; kind = Silent }) byzantine)
    protocol

let node = Rbc_world.node

let outcomes w = List.map (fun (_, me, _, _, o) -> (me, o)) (Rbc_world.deliveries w)

let value_deliveries w =
  List.filter (fun (_, o) -> match o with Rbc.Value _ -> true | _ -> false) (outcomes w)

let digest_deliveries w =
  List.filter (fun (_, o) -> match o with Rbc.Digest_only _ -> true | _ -> false) (outcomes w)

let in_clan i = Array.exists (fun c -> c = i) clan

(* ------------------------------------------------------------------ *)
(* Honest sender, each protocol *)

let test_honest_delivery protocol () =
  let w = make_world protocol in
  Rbc.broadcast (node w 0) ~round:1 "payload-abc";
  Engine.run w.engine;
  Alcotest.(check int) "all deliver" 10 (List.length (outcomes w));
  let expect_values = if List.mem protocol Rbc.[ Bracha; Signed_two_round ] then 10 else 5 in
  Alcotest.(check int) "value deliveries" expect_values (List.length (value_deliveries w));
  Alcotest.(check int) "digest deliveries" (10 - expect_values)
    (List.length (digest_deliveries w));
  (* value receivers see the exact payload; digest receivers its hash *)
  List.iter
    (fun (_, me, _, _, o) ->
      match o with
      | Rbc.Value v -> Alcotest.(check string) (Printf.sprintf "node %d" me) "payload-abc" v
      | Rbc.Digest_only d ->
          Alcotest.(check bool) "digest matches" true
            (Digest32.equal d (Digest32.hash_string "payload-abc")))
    (Rbc_world.deliveries w)

let test_tribe_outcome_split protocol () =
  let w = make_world protocol in
  Rbc.broadcast (node w 2) ~round:3 "xyz";
  Engine.run w.engine;
  List.iter
    (fun (_, me, _, _, o) ->
      match o with
      | Rbc.Value _ ->
          Alcotest.(check bool) (Printf.sprintf "value only in clan (%d)" me) true (in_clan me)
      | Rbc.Digest_only _ ->
          Alcotest.(check bool) (Printf.sprintf "digest only outside (%d)" me) true
            (not (in_clan me)))
    (Rbc_world.deliveries w)

let test_multiple_rounds protocol () =
  let w = make_world protocol in
  Rbc.broadcast (node w 0) ~round:1 "r1";
  Rbc.broadcast (node w 0) ~round:2 "r2";
  Rbc.broadcast (node w 4) ~round:1 "other-sender";
  Engine.run w.engine;
  Alcotest.(check int) "3 instances x 10 nodes" 30 (List.length (outcomes w));
  Alcotest.(check (option string)) "delivered query" (Some "r2")
    (match Rbc.delivered (node w 2) ~sender:0 ~round:2 with
    | Some (Rbc.Value v) -> Some v
    | _ -> None)

let test_double_broadcast_rejected protocol () =
  let w = make_world protocol in
  Rbc.broadcast (node w 0) ~round:1 "a";
  Alcotest.check_raises "double broadcast" (Invalid_argument "Rbc.broadcast: already broadcast")
    (fun () -> Rbc.broadcast (node w 0) ~round:1 "b")

(* ------------------------------------------------------------------ *)
(* Byzantine behaviours *)

(* Equivocation: the Byzantine sender (node 0) sends value "A" to half the
   parties and "B" to the rest. Agreement requires that honest parties never
   deliver conflicting values. *)
let test_equivocation_no_disagreement protocol () =
  let w = make_world ~byzantine:[ 0 ] protocol in
  let send_val dst value =
    Net.send w.net ~src:0 ~dst (Rbc.Val { sender = 0; round = 1; value })
  in
  for dst = 1 to 9 do
    send_val dst (if dst mod 2 = 0 then "AAAA" else "BBBB")
  done;
  Engine.run ~until:(Time.s 30.) w.engine;
  (* With a split 4/5 neither value can gather 2f+1=7 echoes: nothing
     delivers. The key safety check: no two honest parties deliver
     different values. *)
  let values =
    List.filter_map
      (fun (_, _, _, _, o) ->
        match o with
        | Rbc.Value v -> Some v
        | Rbc.Digest_only d -> Some (Digest32.to_raw d))
      (Rbc_world.deliveries w)
  in
  let distinct = List.sort_uniq compare values in
  Alcotest.(check bool) "at most one outcome value" true (List.length distinct <= 1)

(* A Byzantine sender that only sends VAL to the clan minority but whose
   ECHOes still reach quorum: parties that lack the value pull it. *)
let test_pull_path protocol () =
  let w = make_world ~byzantine:[ 0 ] protocol in
  let value = "pull-me" in
  let digest = Digest32.hash_string value in
  (* VAL only to fc+1 = 3 clan members; digest to the outsiders; clan
     member 8 gets nothing at all. Echo quorum still forms (3 clan + 5
     outsiders >= 2f+1 with >= fc+1 from the clan). *)
  List.iter
    (fun dst -> Net.send w.net ~src:0 ~dst (Rbc.Val { sender = 0; round = 1; value }))
    [ 2; 4; 6 ];
  List.iter
    (fun dst ->
      Net.send w.net ~src:0 ~dst (Rbc.Val_digest { sender = 0; round = 1; digest }))
    [ 1; 3; 5; 7; 9 ];
  Engine.run ~until:(Time.s 30.) w.engine;
  (* Clan member 8 never received anything from the sender; it must pull
     the value from another clan member and still deliver it. *)
  List.iter
    (fun me ->
      match Rbc.delivered (node w me) ~sender:0 ~round:1 with
      | Some (Rbc.Value v) -> Alcotest.(check string) (Printf.sprintf "node %d" me) value v
      | _ -> Alcotest.failf "clan node %d failed to deliver the value" me)
    [ 2; 4; 6; 8 ];
  (* Outsiders deliver the digest. *)
  (match Rbc.delivered (node w 1) ~sender:0 ~round:1 with
  | Some (Rbc.Digest_only d) -> Alcotest.(check bool) "digest" true (Digest32.equal d digest)
  | _ -> Alcotest.fail "outsider should deliver digest")

let test_silent_sender protocol () =
  let w = make_world ~byzantine:[ 0 ] protocol in
  (* Sender does nothing at all. *)
  Engine.run ~until:(Time.s 5.) w.engine;
  Alcotest.(check int) "nothing delivered" 0 (List.length (outcomes w))

let test_crash_faults protocol () =
  (* f = 3 silent parties (non-senders): delivery must still complete. *)
  let w = make_world ~byzantine:[ 1; 3; 9 ] protocol in
  Rbc.broadcast (node w 0) ~round:1 "resilient";
  Engine.run ~until:(Time.s 30.) w.engine;
  Alcotest.(check int) "7 honest deliver" 7 (List.length (outcomes w))

let test_forged_echo_ignored () =
  (* Signed protocol: echoes with invalid signatures must not count. *)
  let w = make_world ~byzantine:[ 1 ] Rbc.Tribe_signed in
  let digest = Digest32.hash_string "nonexistent" in
  (* Byzantine node 1 spams forged echoes for a value nobody proposed. *)
  for signer = 0 to 9 do
    ignore signer;
    Net.broadcast w.net ~src:1
      (Rbc.Echo { sender = 5; round = 1; digest; signer = 1; signature = None })
  done;
  Engine.run ~until:(Time.s 5.) w.engine;
  Alcotest.(check int) "no deliveries from forged echoes" 0 (List.length (outcomes w))

(* Forged echoes and certificates, and requests for far-future rounds,
   allocate nothing at the victim; honest traffic afterwards still does,
   but an accepted honest echo after an instance's first allocates no
   heap word at all. *)
let test_forged_traffic_allocates_nothing () =
  let w = make_world ~byzantine:[ 1 ] Rbc.Tribe_signed in
  let victim = node w 0 in
  (* 2f+1 = 7 signers, 5 of them from the clan: only verification fails *)
  let signers = Util.Bitset.of_list 10 [ 0; 1; 2; 4; 6; 7; 8 ] in
  let agg = Keychain.aggregate_of_wire ~tag:(String.make 32 'x') ~signers in
  let send m = Net.send w.net ~src:1 ~dst:0 m in
  for i = 1 to 200 do
    let digest = Digest32.hash_string (string_of_int i) in
    send
      (Rbc.Echo
         { sender = 5; round = 1; digest; signer = 1; signature = Some Keychain.forge });
    send (Rbc.Echo_cert { sender = 5; round = 1; digest; agg });
    send (Rbc.Pull_request { sender = 5; round = 1_000_000 + i });
    send (Rbc.Sync_request { sender = 5; round = 1_000_000 + i })
  done;
  Engine.run w.engine;
  Alcotest.(check (pair int int)) "nothing allocated" (0, 0) (Rbc.footprint victim);
  Rbc.broadcast (node w 2) ~round:1 "honest";
  Engine.run w.engine;
  Alcotest.(check (pair int int)) "one instance, one digest" (1, 1)
    (Rbc.footprint victim);
  (* Valid echoes for an instance the victim has not certified: the first
     makes its vote record, each later one is counted in place. *)
  let digest = Digest32.hash_string "counted" in
  let signing = Rbc.echo_signing_string ~sender:5 ~round:2 digest in
  let deliver_echo signer =
    let signature = Some (Keychain.sign w.keychain ~signer signing) in
    Net.send w.net ~src:signer ~dst:0
      (Rbc.Echo { sender = 5; round = 2; digest; signer; signature });
    Test_sim.minor_words (fun () -> ignore (Engine.step w.engine))
  in
  ignore (deliver_echo 2);
  List.iter
    (fun signer ->
      Alcotest.(check int) (Printf.sprintf "echo from %d allocates" signer) 0
        (deliver_echo signer))
    [ 3; 4; 6 ];
  Alcotest.(check (pair int int)) "two instances, two digests" (2, 2)
    (Rbc.footprint victim)

(* Certificates are cut from a running XOR of the echoes, not from held
   shares: every certificate a node forms carries a quorum of signers,
   each of whom put a valid echo share on the wire, and its tag equals
   [Keychain.aggregate] over exactly those shares. *)
let test_certificates_match_share_aggregate () =
  let w = make_world Rbc.Tribe_signed in
  let shares = Hashtbl.create 64 and certs = ref [] in
  Net.set_filter w.net (fun ~src:_ ~dst:_ m ->
      (match m with
      | Rbc.Echo { sender; round; digest; signer; signature = Some s } ->
          Hashtbl.replace shares (sender, round, digest, signer) s
      | Rbc.Echo_cert { sender; round; digest; agg } ->
          certs := (sender, round, digest, agg) :: !certs
      | _ -> ());
      true);
  Rbc.broadcast (node w 0) ~round:1 "aggregated";
  Rbc.broadcast (node w 3) ~round:1 "twice";
  Engine.run w.engine;
  Alcotest.(check int) "all deliver" 20 (List.length (outcomes w));
  Alcotest.(check bool) "certificates formed" true (List.length !certs >= 20);
  List.iter
    (fun (sender, round, digest, agg) ->
      let signers = Keychain.signers agg in
      Alcotest.(check bool) "quorum of signers" true (Util.Bitset.cardinal signers >= 7);
      let parts =
        List.map
          (fun i -> (i, Hashtbl.find shares (sender, round, digest, i)))
          (Util.Bitset.to_list signers)
      in
      let expect = Option.get (Keychain.aggregate w.keychain parts) in
      Alcotest.(check string) "tag" (Keychain.aggregate_tag expect)
        (Keychain.aggregate_tag agg);
      Alcotest.(check bool) "certificate verifies" true
        (Keychain.verify_aggregate w.keychain
           ~msg:(Rbc.echo_signing_string ~sender ~round digest)
           agg))
    !certs

let test_rate_limited_pulls () =
  let w = make_world Rbc.Tribe_signed in
  Rbc.broadcast (node w 0) ~round:1 "limited";
  Engine.run w.engine;
  let before = Net.total_messages w.net in
  (* A greedy peer hammers node 0 with pull requests; the budget (8) caps
     replies. *)
  for _ = 1 to 50 do
    Net.send w.net ~src:3 ~dst:0 (Rbc.Pull_request { sender = 0; round = 1 })
  done;
  Engine.run w.engine;
  let extra = Net.total_messages w.net - before in
  (* 50 requests + at most 8 replies *)
  Alcotest.(check bool) "replies capped" true (extra <= 58)

(* Latency comparison: the 2-round protocol must beat the 3-round one. *)
let test_two_rounds_faster () =
  let last_delivery protocol =
    let w = make_world protocol in
    Rbc.broadcast (node w 0) ~round:1 "latency";
    Engine.run w.engine;
    List.fold_left (fun acc (time, _, _, _, _) -> max acc time) 0 (Rbc_world.deliveries w)
  in
  let bracha = last_delivery Rbc.Tribe_bracha in
  let signed = last_delivery Rbc.Tribe_signed in
  Alcotest.(check bool)
    (Printf.sprintf "2-round (%d) faster than 3-round (%d)" signed bracha)
    true (signed < bracha)

let protocol_cases name protocol =
  [
    Alcotest.test_case (name ^ ": honest delivery") `Quick (test_honest_delivery protocol);
    Alcotest.test_case (name ^ ": multiple rounds") `Quick (test_multiple_rounds protocol);
    Alcotest.test_case (name ^ ": double broadcast") `Quick (test_double_broadcast_rejected protocol);
    Alcotest.test_case (name ^ ": equivocation") `Quick (test_equivocation_no_disagreement protocol);
    Alcotest.test_case (name ^ ": silent sender") `Quick (test_silent_sender protocol);
    Alcotest.test_case (name ^ ": crash faults") `Quick (test_crash_faults protocol);
  ]

(* The instance core on Byzantine coordinates: echoes and certificates
   for round -1, max_int or a sender outside the committee return [None]
   and raise nothing, whether their signatures verify or not; pruning
   drops whole rounds. *)
module Core = Clanbft_rbc.Rbc_core

let test_core_total () =
  let n = 4 in
  let engine = Engine.create () in
  let net =
    Net.create ~engine ~topology:(Topology.uniform ~n ~one_way_ms:10.0)
      ~config:Net.default_config ~size:(fun _ -> 1) ~rng:(Util.Rng.create 1L) ()
  in
  for i = 0 to n - 1 do
    Net.set_handler net i (fun ~src:_ _ -> ())
  done;
  let keychain = Keychain.create ~seed:1L ~n in
  let signing ~sender ~round d = Rbc.echo_signing_string ~sender ~round d in
  let ctx =
    {
      Core.fresh = (fun () -> ());
      signing;
      in_clan = (fun ~sender:_ _ -> false);
      clan_threshold = (fun ~sender:_ -> 0);
      relays_cert = (fun ~sender:_ -> true);
      keep_certs = false;
      echo = (fun ~sender:_ ~round:_ _ ~signer:_ _ -> ());
      ready = (fun ~sender:_ ~round:_ _ ~signer:_ -> ());
      echo_cert = (fun ~sender:_ ~round:_ _ _ ~clan_echoes:_ -> ());
    }
  in
  let c =
    Core.create ~me:0 ~n ~f:1 ~signed:true ~engine ~net ~keychain ~retry:1_000 ~budget:1
      ~trace:Obs.disabled.Obs.trace
      ~pull_retries:(Metrics.counter (Metrics.create_registry ()) "pulls")
      ctx
  in
  let digest = Digest32.hash_string "d" in
  let signers = Util.Bitset.of_list n [ 0; 1; 2 ] in
  let forged = Keychain.aggregate_of_wire ~tag:(String.make 32 'x') ~signers in
  List.iter
    (fun (round, sender) ->
      let what = Printf.sprintf "round %d sender %d" round sender in
      let signer = 1 in
      let valid = Keychain.sign keychain ~signer (signing ~sender ~round digest) in
      List.iter
        (fun signature ->
          Alcotest.(check bool) (what ^ ": echo") true
            (Core.on_echo c ~sender ~round digest ~signer signature = None))
        [ valid; Keychain.forge ];
      let agg =
        Option.get
          (Keychain.aggregate keychain
             (List.map
                (fun i -> (i, Keychain.sign keychain ~signer:i (signing ~sender ~round digest)))
                [ 0; 1; 2 ]))
      in
      List.iter
        (fun agg ->
          let got = Core.on_echo_cert c ~sender ~round digest agg in
          (* A valid certificate for an in-range sender completes the
             instance; nothing else does. *)
          Alcotest.(check bool) (what ^ ": certificate") (sender >= 0 && sender < n && agg != forged)
            (got <> None))
        [ forged; agg ])
    [ (-1, 0); (max_int, 3); (min_int, 1); (5, -1); (5, n); (5, max_int) ];
  Alcotest.(check (pair int int)) "in-range instances only" (3, 3) (Core.footprint c);
  Core.prune_below c ~round:0;
  Alcotest.(check (pair int int)) "rounds below 0 dropped" (1, 1) (Core.footprint c);
  Alcotest.(check bool) "round -1 gone" true (Core.find c ~sender:0 ~round:(-1) = None);
  Core.prune_below c ~round:max_int;
  Alcotest.(check (pair int int)) "only round max_int left" (1, 1) (Core.footprint c);
  Alcotest.(check bool) "round max_int kept" true (Core.find c ~sender:3 ~round:max_int <> None)

let suites =
  [
    ("rbc.bracha", protocol_cases "bracha" Rbc.Bracha);
    ("rbc.signed-2round", protocol_cases "signed" Rbc.Signed_two_round);
    ( "rbc.tribe-bracha",
      protocol_cases "tribe-bracha" Rbc.Tribe_bracha
      @ [
          Alcotest.test_case "outcome split" `Quick (test_tribe_outcome_split Rbc.Tribe_bracha);
          Alcotest.test_case "pull path" `Quick (test_pull_path Rbc.Tribe_bracha);
        ] );
    ( "rbc.tribe-signed",
      protocol_cases "tribe-signed" Rbc.Tribe_signed
      @ [
          Alcotest.test_case "outcome split" `Quick (test_tribe_outcome_split Rbc.Tribe_signed);
          Alcotest.test_case "pull path" `Quick (test_pull_path Rbc.Tribe_signed);
          Alcotest.test_case "forged echoes ignored" `Quick test_forged_echo_ignored;
          Alcotest.test_case "core total on Byzantine rounds" `Quick test_core_total;
          Alcotest.test_case "forged traffic allocates nothing" `Quick
            test_forged_traffic_allocates_nothing;
          Alcotest.test_case "certificates equal aggregated shares" `Quick
            test_certificates_match_share_aggregate;
          Alcotest.test_case "pull rate limiting" `Quick test_rate_limited_pulls;
          Alcotest.test_case "2-round faster than 3-round" `Quick test_two_rounds_faster;
        ] );
  ]
