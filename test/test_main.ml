let () =
  Alcotest.run "lxr-repro"
    (Test_util.suite @ Test_spec.suite @ Test_par.suite @ Test_heap.suite @ Test_engine.suite @ Test_lxr.suite @ Test_collectors.suite @ Test_mutator.suite @ Test_harness.suite @ Test_compaction.suite @ Test_integration.suite @ Test_verify.suite @ Test_trace.suite @ Test_service.suite @ Test_distill.suite @ Test_golden.suite)
