(* Golden commit fingerprints. A refactor that must not change behaviour
   (same messages, same order, same timers) keeps these values exactly;
   a change that moves one needs a stated reason and a re-pin. *)

open Clanbft
module Time = Sim.Time

(* The bench's pinned n=16 perf scenarios. *)
let perf_spec name protocol load =
  {
    Runner.default_spec with
    n = 16;
    protocol;
    txns_per_proposal = load;
    duration = Time.s 4.;
    warmup = Time.s 1.;
    seed = Util.Rng.seed_of_string name;  (* the bench's per-scenario seed *)
  }

(* perfbench's crash-recover workload: a persisted WAL, one replica down
   all run and one restart, so WAL replay and state sync are on the path. *)
let crash_recover_spec =
  {
    Runner.default_spec with
    seed = 1L;
    txn_size = 512;
    n = 16;
    protocol = Runner.Full;
    txns_per_proposal = 30;
    duration = Time.s 30.;
    warmup = Time.s 1.;
    persist = true;
    crashed = [ 9 ];
    restarts =
      [ { Faults.node = 3; crash_at = Time.s 3.; recover_at = Time.s 5. } ];
  }

let check_fingerprint expected spec () =
  let r = Runner.run spec in
  Alcotest.(check bool) "agreement" true r.Runner.agreement;
  Alcotest.(check string) "commit fingerprint"
    (Printf.sprintf "%#x" expected)
    (Printf.sprintf "%#x" r.Runner.commit_fingerprint)

let case name expected spec =
  Alcotest.test_case name `Slow (check_fingerprint expected spec)

let suites =
  [
    ( "golden.fingerprint",
      [
        case "sailfish-n16-load200" 0x426646f2a397af56
          (perf_spec "sailfish-n16-load200" Runner.Full 200);
        case "single-clan-n16-load400" 0x7dd3f2eb90b708e6
          (perf_spec "single-clan-n16-load400"
             (Runner.Single_clan { nc = 11 }) 400);
        case "multi-clan-n16q2-load200" 0x48326a3b18e1063e
          (perf_spec "multi-clan-n16q2-load200" (Runner.Multi_clan { q = 2 }) 200);
        case "sparse-n16-load200" 0x52b956d2f2ca9bb9
          (perf_spec "sparse-n16-load200" (Runner.Sparse { k = 3 }) 200);
        case "crash-recover seed 1" 0x84afc86354db0b5 crash_recover_spec;
      ] );
  ]
