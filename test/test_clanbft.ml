(* Test entry point: every module contributes alcotest suites. *)

let () =
  Alcotest.run "clanbft"
    (Test_util.suites @ Test_pool.suites @ Test_bigint.suites @ Test_crypto.suites
   @ Test_sim.suites @ Test_committee.suites @ Test_types.suites
   @ Test_rbc.suites @ Test_faults.suites @ Test_strategy.suites
   @ Test_dag.suites
   @ Test_consensus.suites @ Test_poa.suites @ Test_smr.suites
   @ Test_obs.suites @ Test_prof.suites @ Test_analyze.suites
   @ Test_recovery.suites
   @ Test_check.suites @ Test_golden.suites)
