let () =
  Alcotest.run "flick"
    (Test_lexer.suite @ Test_corba.suite @ Test_onc.suite @ Test_presgen.suite @ Test_engines.suite @ Test_backend.suite @ Test_mig.suite @ Test_len_pres.suite @ Test_cast.suite @ Test_wire.suite @ Test_sgwire.suite @ Test_plan.suite @ Test_decplan.suite @ Test_compiled.suite @ Test_verify.suite @ Test_obs.suite @ Test_sim.suite @ Test_serve.suite @ Test_request_trace.suite @ Test_frame.suite @ Test_varhead.suite @ Test_forward.suite @ Test_driver.suite @ Test_goldens.suite @ Test_c_equiv.suite @ Test_aoi_fuzz.suite)
