(* Golden commit fingerprint of the one pinned run no bench section makes.
   A refactor that must not change behaviour (same messages, same order,
   same timers) keeps it exactly; a change that moves it needs a stated
   reason and a re-pin. The bench's perf scenarios, fingerprints included,
   are pinned by the test/bench.t cram test. *)

open Clanbft
module Time = Sim.Time

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

let test_crash_recover () =
  let r = Runner.run crash_recover_spec in
  Alcotest.(check bool) "agreement" true r.Runner.agreement;
  (* Re-pinned from 0x84afc86354db0b5 when crashed replicas stopped
     running: replica 9 used to answer traffic and echo toward quorums
     although it never started. *)
  Alcotest.(check string) "commit fingerprint" "0x3a6ff678b8d4b119"
    (Printf.sprintf "%#x" r.Runner.commit_fingerprint)

let suites =
  [
    ( "golden.fingerprint",
      [ Alcotest.test_case "crash-recover seed 1" `Slow test_crash_recover ] );
  ]
