(* The instrumented pass manager, the structural plan verifier, and the
   pipeline configuration.

   Three pins hold the refactor together:
   1. the registered pipeline (all passes, registration order) produces
      structurally identical plans to the monolithic Peephole entry
      points, on the paper fixtures and on >= 500 random cases per
      paper encoding — with the verifier running after every pass;
   2. the verifier rejects seeded corruptions (dropped reservations,
      non-monotone chunk items, out-of-scope loop variables, undefined
      subroutines, bad decode hoists, slot misuse) with the expected
      diagnostics;
   3. Opt_config round-trips its string syntax, and the pass selection
      — but not the verify flag — separates plan-cache entries. *)

let test name f = Alcotest.test_case name `Quick f

let verify_all = { Opt_config.selection = Opt_config.All; verify = true }

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* -- 1. pipeline == monolith, verified after every pass --------------- *)

let fixture_specs () =
  List.concat_map
    (fun (enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      List.map
        (fun op -> (enc, Paper_fixtures.request_spec pc ~op))
        [ "send_ints"; "send_rects"; "send_dirents" ])
    [
      (Encoding.xdr, `Rpcgen);
      (Encoding.cdr, `Corba);
      (Encoding.mach3, `Rpcgen);
    ]

let to_droot = function
  | Stub_opt.Dconst_int (v, k) -> Dplan_compile.Dconst_int (v, k)
  | Stub_opt.Dconst_str s -> Dplan_compile.Dconst_str s
  | Stub_opt.Dvalue (i, p) -> Dplan_compile.Dvalue (i, p)

let fixture_tests =
  [
    test "default pipeline = monolithic peephole on the paper fixtures"
      (fun () ->
        List.iter
          (fun (enc, spec) ->
            let mint = spec.Paper_fixtures.ms_mint
            and named = spec.Paper_fixtures.ms_named in
            List.iter
              (fun chunked ->
                let raw =
                  Plan_compile.compile ~enc ~mint ~named ~chunked
                    spec.Paper_fixtures.ms_roots
                in
                let piped = Pass.run_encode ~config:verify_all raw in
                Alcotest.(check bool)
                  (Printf.sprintf "%s chunked=%b: encode pipeline = monolith"
                     enc.Encoding.name chunked)
                  true
                  (piped = Peephole.optimize_plan raw))
              [ true; false ];
            let draw =
              Dplan_compile.compile ~enc ~mint ~named
                (List.map to_droot spec.Paper_fixtures.ms_droots)
            in
            let dpiped = Pass.run_decode ~config:verify_all draw in
            Alcotest.(check bool)
              (Printf.sprintf "%s: decode pipeline = monolith"
                 enc.Encoding.name)
              true
              (dpiped = Peephole.optimize_dplan draw))
          (fixture_specs ()));
    test "trace instrumentation: every pass, chained counts" (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
        let raw =
          Plan_compile.compile ~enc:Encoding.xdr
            ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named ~chunked:false
            spec.Paper_fixtures.ms_roots
        in
        let traces = ref [] in
        ignore
          (Pass.run_encode ~config:verify_all
             ~on_trace:(fun tr -> traces := !traces @ [ tr ])
             raw);
        let traces = !traces in
        Alcotest.(check (list string))
          "one trace per registered pass, in order" Pass.encode_pass_names
          (List.map (fun (tr : Pass.trace) -> tr.Pass.tr_pass) traces);
        let raw_nodes = Pass.encode_side.Pass.s_nodes raw in
        (match traces with
        | first :: _ ->
            Alcotest.(check int)
              "first pass sees the compiler's node count" raw_nodes
              first.Pass.tr_nodes_before
        | [] -> Alcotest.fail "no traces");
        List.iter
          (fun (tr : Pass.trace) ->
            Alcotest.(check bool)
              (tr.Pass.tr_pass ^ ": verified flag set") true
              tr.Pass.tr_verified;
            Alcotest.(check string) "side" "encode" tr.Pass.tr_side)
          traces;
        ignore
          (List.fold_left
             (fun prev (tr : Pass.trace) ->
               (match prev with
               | Some n ->
                   Alcotest.(check int)
                     (tr.Pass.tr_pass ^ ": counts chain") n
                     tr.Pass.tr_nodes_before
               | None -> ());
               Some tr.Pass.tr_nodes_after)
             None traces));
    test "empty selection returns the compiler's plan untouched" (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_rects" in
        let raw =
          Plan_compile.compile ~enc:Encoding.xdr
            ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named ~chunked:false
            spec.Paper_fixtures.ms_roots
        in
        let traces = ref 0 in
        let out =
          Pass.run_encode ~config:Opt_config.none
            ~on_trace:(fun _ -> incr traces)
            raw
        in
        Alcotest.(check bool) "identical" true (out = raw);
        Alcotest.(check int) "no passes ran" 0 !traces);
  ]

(* -- random plans: pipeline verified pass-by-pass, equal to monolith -- *)

let rng = Random.State.make [| 0x9a55 |]

let pipeline_prop enc (c : Test_engines.case) =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let roots = Test_engines.roots_of c in
  let v =
    Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres
  in
  let encode plan =
    let buf = Mbuf.create 64 in
    Stub_opt.encoder_of_plan ~enc plan buf [| v |];
    Bytes.to_string (Mbuf.contents buf)
  in
  List.iter
    (fun chunked ->
      let raw = Plan_compile.compile ~enc ~mint ~named ~chunked roots in
      (* verify_all makes the runner verify the compiler's output and
         every pass's output; any violation raises Pass.Verify_failed,
         which qcheck reports as the counterexample *)
      let piped = Pass.run_encode ~config:verify_all raw in
      if piped <> Peephole.optimize_plan raw then
        QCheck.Test.fail_reportf
          "encode pipeline (chunked=%b) differs from monolith on %s" chunked
          c.Test_engines.label;
      (* keep the wire honest too: the piped plan encodes the same bytes *)
      if encode piped <> encode raw then
        QCheck.Test.fail_reportf "pipeline changed bytes (chunked=%b) on %s"
          chunked c.Test_engines.label)
    [ true; false ];
  let draw =
    Dplan_compile.compile ~enc ~mint ~named
      [ Dplan_compile.Dvalue (c.Test_engines.idx, c.Test_engines.pres) ]
  in
  let dpiped = Pass.run_decode ~config:verify_all draw in
  if dpiped <> Peephole.optimize_dplan draw then
    QCheck.Test.fail_reportf "decode pipeline differs from monolith on %s"
      c.Test_engines.label;
  true

let property_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:500
           ~name:
             (Printf.sprintf
                "%s: 500 random plans verified after every pass, pipeline = \
                 monolith"
                enc.Encoding.name)
           Test_engines.arbitrary_case (pipeline_prop enc)))
    [ Encoding.xdr; Encoding.cdr; Encoding.mach3 ]

(* -- 2. seeded corruptions are rejected ------------------------------- *)

let a32 =
  {
    Mplan.kind = Encoding.Kint { bits = 32; signed = true };
    size = 4;
    align = 4;
  }

let p0 = Mplan.Rparam { index = 0; name = "p"; deref = false }
let seq_via = Mplan.Via_seq { len_field = "len"; buf_field = "val" }

let expect_reject what (result : (unit, Plan_verify.error) result) needle =
  match result with
  | Ok () -> Alcotest.failf "%s: verifier accepted the corrupted plan" what
  | Error e ->
      let msg = Plan_verify.error_to_string e in
      if not (contains msg needle) then
        Alcotest.failf "%s: diagnostic %S does not mention %S" what msg needle

let eplan ops = { Plan_compile.p_ops = ops; p_subs = [] }

(* Two 4-byte elements under a hoisted reservation of [u] bytes each,
   their count checked at [elem_min] bytes each. *)
let hoisted_loop ?(elem_min = 4) u =
  let chunk =
    Dplan.D_chunk
      { size = 4; items = [ Dplan.Dit_atom { off = 0; atom = a32; slot = 0 } ]; check = false }
  in
  {
    Dplan.d_nslots = 1;
    d_ops =
      [
        Dplan.D_loop
          {
            count = Dplan.Dc_fixed 2;
            ensure = Some u;
            elem_min;
            frame = { Dplan.f_nslots = 1; f_ops = [ chunk ]; f_shape = Dplan.Sh_slot 0 };
            slot = 0;
          };
      ];
    d_shapes = [ Dplan.Sh_slot 0 ];
    d_subs = [];
  }

let negative_tests =
  [
    test "corruption: unchecked chunk without covering reservation"
      (fun () ->
        (* the ensure the compiler would emit before the loop, dropped *)
        let plan =
          eplan
            [
              Mplan.Loop
                {
                  arr = p0;
                  via = seq_via;
                  var = 0;
                  body =
                    [
                      Mplan.Chunk
                        {
                          size = 4;
                          align = 4;
                          items =
                            [
                              Mplan.It_atom
                                { off = 0; atom = a32; src = Mplan.Rvar 0 };
                            ];
                          check = false;
                        };
                    ];
                };
            ]
        in
        expect_reject "dropped ensure" (Plan_verify.check_plan plan)
          "dropped ensure";
        (* and the same shape with the reservation present is accepted *)
        let ok =
          eplan
            [
              Mplan.Ensure_count { arr = p0; via = seq_via; unit_size = 4 };
              Mplan.Loop
                {
                  arr = p0;
                  via = seq_via;
                  var = 0;
                  body =
                    [
                      Mplan.Chunk
                        {
                          size = 4;
                          align = 4;
                          items =
                            [
                              Mplan.It_atom
                                { off = 0; atom = a32; src = Mplan.Rvar 0 };
                            ];
                          check = false;
                        };
                    ];
                };
            ]
        in
        Alcotest.(check bool)
          "covered shape accepted" true
          (Plan_verify.check_plan ok = Ok ()));
    test "corruption: overlapping chunk item offsets" (fun () ->
        let plan =
          eplan
            [
              Mplan.Chunk
                {
                  size = 8;
                  align = 4;
                  items =
                    [
                      Mplan.It_atom { off = 0; atom = a32; src = p0 };
                      Mplan.It_atom { off = 2; atom = a32; src = p0 };
                    ];
                  check = true;
                };
            ]
        in
        expect_reject "overlap" (Plan_verify.check_plan plan) "not monotone");
    test "corruption: chunk item past the chunk's span" (fun () ->
        let plan =
          eplan
            [
              Mplan.Chunk
                {
                  size = 2;
                  align = 4;
                  items = [ Mplan.It_atom { off = 0; atom = a32; src = p0 } ];
                  check = true;
                };
            ]
        in
        expect_reject "extent" (Plan_verify.check_plan plan) "extends past");
    test "corruption: loop variable referenced out of scope" (fun () ->
        let plan =
          eplan
            [
              Mplan.Chunk
                {
                  size = 4;
                  align = 4;
                  items =
                    [ Mplan.It_atom { off = 0; atom = a32; src = Mplan.Rvar 3 } ];
                  check = true;
                };
            ]
        in
        expect_reject "scope" (Plan_verify.check_plan plan) "out of scope");
    test "corruption: call to an undefined marshal subroutine" (fun () ->
        expect_reject "call"
          (Plan_verify.check_plan (eplan [ Mplan.Call ("node_17", p0) ]))
          "undefined marshal subroutine");
    test "corruption: decode shape reads a slot no op writes" (fun () ->
        let plan =
          {
            Dplan.d_nslots = 1;
            d_ops = [];
            d_shapes = [ Dplan.Sh_slot 0 ];
            d_subs = [];
          }
        in
        expect_reject "undefined slot" (Plan_verify.check_dplan plan)
          "no op writes");
    test "corruption: hoisted decode reservation with the wrong stride"
      (fun () ->
        expect_reject "bad stride"
          (Plan_verify.check_dplan (hoisted_loop 8))
          "consumes exactly";
        Alcotest.(check bool)
          "correct stride accepted" true
          (Plan_verify.check_dplan (hoisted_loop 4) = Ok ()));
    test "corruption: decode slot written twice" (fun () ->
        let plan =
          {
            Dplan.d_nslots = 1;
            d_ops =
              [
                Dplan.D_get_string { max_len = None; slot = 0; view = false };
                Dplan.D_get_string { max_len = None; slot = 0; view = false };
              ];
            d_shapes = [ Dplan.Sh_slot 0 ];
            d_subs = [];
          }
        in
        expect_reject "double write" (Plan_verify.check_dplan plan)
          "written twice");
    test "the pass manager raises Verify_failed on corrupt input" (fun () ->
        let bad = eplan [ Mplan.Call ("node_17", p0) ] in
        match Pass.run_encode ~config:verify_all bad with
        | _ -> Alcotest.fail "expected Verify_failed"
        | exception Pass.Verify_failed { side; pass; error } ->
            Alcotest.(check string) "side" "encode" side;
            Alcotest.(check string) "blamed on the compiler" "<compile>" pass;
            Alcotest.(check bool)
              "diagnostic names the subroutine" true
              (contains
                 (Plan_verify.error_to_string error)
                 "undefined marshal subroutine"));
    test "corruption: loop element minimum above what an element takes"
      (fun () ->
        (* a count checked at 8 bytes per 4-byte element rejects a
           well-formed message holding more than half the elements the
           bytes could *)
        expect_reject "minimum too large"
          (Plan_verify.check_dplan (hoisted_loop ~elem_min:8 4))
          "exceeds the 4 bytes";
        Alcotest.(check bool)
          "exact minimum accepted" true
          (Plan_verify.check_dplan (hoisted_loop ~elem_min:4 4) = Ok ()));
  ]

(* -- 2b. Decode-side loop-scalar fusion ------------------------------- *)

(* The compiler lowers scalar arrays to D_get_atom_array directly, so
   this pass only ever fires on loops produced by hand or by other
   rewrites — the goldens here are hand-built, with node counts pinned
   so a change in what fuses is a diff, not a silent drift. *)

let achar = { Mplan.kind = Encoding.Kchar; size = 1; align = 1 }

let scalar_loop ?(atom = achar) ?(size = atom.Mplan.size) ?(check = true) ()
    =
  {
    Dplan.d_nslots = 1;
    d_ops =
      [
        Dplan.D_loop
          {
            count = Dplan.Dc_fixed 3;
            ensure = None;
            elem_min = atom.Mplan.size;
            frame =
              {
                Dplan.f_nslots = 1;
                f_ops =
                  [
                    Dplan.D_chunk
                      {
                        size;
                        items =
                          [ Dplan.Dit_atom { off = 0; atom; slot = 0 } ];
                        check;
                      };
                  ];
                f_shape = Dplan.Sh_slot 0;
              };
            slot = 0;
          };
      ];
    d_shapes = [ Dplan.Sh_slot 0 ];
    d_subs = [];
  }

let fusion_tests =
  [
    test "gapless scalar char loop fuses into one atom-array read" (fun () ->
        let plan = scalar_loop () in
        Alcotest.(check int) "node count before" 3
          (Dplan.count_ops plan.Dplan.d_ops);
        let fused =
          Pass.run_decode
            ~config:
              {
                Opt_config.selection =
                  Opt_config.Only [ "loop-scalar-fusion" ];
                verify = true;
              }
            plan
        in
        (match fused.Dplan.d_ops with
        | [ Dplan.D_get_atom_array
              { count = Dplan.Dc_fixed 3; atom; slot = 0; _ } ] ->
            Alcotest.(check bool) "atom preserved" true (atom = achar)
        | _ -> Alcotest.fail "expected one D_get_atom_array");
        Alcotest.(check int) "node count after" 1
          (Dplan.count_ops fused.Dplan.d_ops);
        Alcotest.(check bool) "fused plan verifies" true
          (Plan_verify.check_dplan fused = Ok ());
        (* loop and fused forms decode the same bytes to the same value *)
        let wire = Bytes.of_string "abc" in
        let dec p = Stub_opt.decoder_of_dplan ~enc:Encoding.xdr p in
        Alcotest.(check bool) "same decode" true
          (dec plan (Mbuf.reader_of_bytes wire)
          = dec fused (Mbuf.reader_of_bytes wire)));
    test "integer loops do not fuse (array reads build Vint_array)"
      (fun () ->
        let plan = scalar_loop ~atom:a32 ~size:4 () in
        let fused =
          Pass.run_decode
            ~config:
              {
                Opt_config.selection =
                  Opt_config.Only [ "loop-scalar-fusion" ];
                verify = true;
              }
            plan
        in
        match fused.Dplan.d_ops with
        | [ Dplan.D_loop _ ] -> ()
        | _ -> Alcotest.fail "expected the loop to survive");
    test "strided frames do not fuse (chunk wider than the atom)" (fun () ->
        let plan = scalar_loop ~size:2 () in
        let fused =
          Pass.run_decode
            ~config:
              {
                Opt_config.selection =
                  Opt_config.Only [ "loop-scalar-fusion" ];
                verify = true;
              }
            plan
        in
        match fused.Dplan.d_ops with
        | [ Dplan.D_loop _ ] -> ()
        | _ -> Alcotest.fail "expected the loop to survive");
    test "verifier: atom-array stride must be a multiple of its alignment"
      (fun () ->
        let bad =
          {
            Dplan.d_nslots = 1;
            d_ops =
              [
                Dplan.D_get_atom_array
                  {
                    count = Dplan.Dc_fixed 1;
                    atom =
                      {
                        Mplan.kind = Encoding.Kfloat { bits = 48 };
                        size = 6;
                        align = 4;
                      };
                    var = false;
                    slot = 0;
                  };
              ];
            d_shapes = [ Dplan.Sh_slot 0 ];
            d_subs = [];
          }
        in
        expect_reject "bad stride" (Plan_verify.check_dplan bad)
          "multiple of its alignment");
  ]

(* -- 3. Opt_config syntax and cache-key behavior ---------------------- *)

let config_tests =
  [
    test "of_string / to_string round-trips" (fun () ->
        (* canonical spellings print back verbatim *)
        List.iter
          (fun s ->
            match Opt_config.of_string s with
            | Ok c -> Alcotest.(check string) s s (Opt_config.to_string c)
            | Error msg -> Alcotest.failf "%S rejected: %s" s msg)
          [
            "all"; "none"; "all+verify"; "none+verify"; "only:chunk-coalesce";
            "only:chunk-coalesce,ensure-hoist"; "only:loop-blit-fusion+verify";
          ];
        (* a bare pass list parses to the same config as its canonical form *)
        match Opt_config.of_string "chunk-coalesce,ensure-hoist+verify" with
        | Ok c ->
            Alcotest.(check string) "canonicalized"
              "only:chunk-coalesce,ensure-hoist+verify"
              (Opt_config.to_string c)
        | Error msg -> Alcotest.failf "bare list rejected: %s" msg);
    test "of_string rejects the empty selection" (fun () ->
        match Opt_config.of_string "" with
        | Ok _ -> Alcotest.fail "empty string accepted"
        | Error _ -> ());
    test "validate rejects unknown pass names, listing the registry"
      (fun () ->
        match Pass.validate (Opt_config.only [ "chunk-coalesce"; "bogus" ]) with
        | Ok () -> Alcotest.fail "unknown pass accepted"
        | Error msg ->
            Alcotest.(check bool) "names the offender" true
              (contains msg "bogus");
            Alcotest.(check bool) "lists known passes" true
              (contains msg "chunk-coalesce"));
    test "selection fingerprints distinguish pipelines, ignore verify"
      (fun () ->
        let fp c = Opt_config.selection_fingerprint c in
        Alcotest.(check bool) "all <> none" true
          (fp Opt_config.all <> fp Opt_config.none);
        Alcotest.(check bool) "all <> subset" true
          (fp Opt_config.all <> fp (Opt_config.only [ "chunk-coalesce" ]));
        Alcotest.(check string) "verify not keyed"
          (fp Opt_config.all)
          (fp { Opt_config.all with Opt_config.verify = true }));
    test "pass selection separates plan-cache entries" (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
        let get config =
          Plan_cache.plan ~enc:Encoding.xdr ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named ~chunked:false ~config
            spec.Paper_fixtures.ms_roots
        in
        (* same selection -> same cached object; different selection ->
           different entry (and here, a genuinely different plan) *)
        Alcotest.(check bool)
          "all cached once" true
          (get Opt_config.all == get Opt_config.all);
        Alcotest.(check bool)
          "none cached separately" true
          (get Opt_config.none != get Opt_config.all);
        Alcotest.(check bool)
          "unoptimized plan really is different" true
          (get Opt_config.none <> get Opt_config.all);
        Alcotest.(check bool)
          "verify flag does not split the cache" true
          (get { Opt_config.all with Opt_config.verify = true }
          == get Opt_config.all));
    test "cache stats expose evictions in one record" (fun () ->
        let c = Plan_cache.create ~name:"test.evict" ~max_entries:4 () in
        for i = 1 to 9 do
          ignore (Plan_cache.find_or_add c (string_of_int i) (fun () -> i))
        done;
        let st = Plan_cache.cache_stats c in
        Alcotest.(check int) "misses" 9 st.Plan_cache.misses;
        Alcotest.(check bool) "evictions counted" true
          (st.Plan_cache.evictions >= 4);
        Alcotest.(check bool) "hit_rate bounded" true
          (Plan_cache.hit_rate st >= 0. && Plan_cache.hit_rate st <= 1.));
  ]

(* -- fixpoint iteration ----------------------------------------------- *)

(* The manager repeats the selected pipeline until a round records zero
   rewrites (bounded by max_rounds).  The pin: run fusion BEFORE
   coalescing on a loop whose body only fuses after coalescing has
   normalized it — round 1 coalesces, round 2 fuses, round 3 finds
   nothing and is silent.  A single-round manager would miss the fusion
   entirely. *)

let a32 =
  { Mplan.kind = Encoding.Kint { bits = 32; signed = false }; size = 4; align = 4 }

let two_chunk_loop () =
  let arr = Mplan.Rparam { index = 0; name = "xs"; deref = false } in
  {
    Plan_compile.p_ops =
      [
        Mplan.Loop
          {
            arr;
            via = Mplan.Via_seq { len_field = "len"; buf_field = "val" };
            var = 0;
            body =
              [
                Mplan.Chunk
                  {
                    size = 4;
                    align = 4;
                    items =
                      [ Mplan.It_atom { off = 0; atom = a32; src = Mplan.Rvar 0 } ];
                    check = true;
                  };
                (* the no-op chunk coalescing deletes; until it does,
                   the two-op body blocks fusion *)
                Mplan.Chunk { size = 0; align = 1; items = []; check = false };
              ];
          };
      ];
    p_subs = [];
  }

let fixpoint_tests =
  [
    test "chunk-coalesce exposes loop-blit-fusion on round 2" (fun () ->
        let config =
          {
            (Opt_config.only [ "loop-blit-fusion"; "chunk-coalesce" ]) with
            Opt_config.verify = true;
          }
        in
        let traces = ref [] in
        let out =
          Pass.run_encode ~config
            ~on_trace:(fun tr -> traces := !traces @ [ tr ])
            (two_chunk_loop ())
        in
        (* the fused result: one tight array blit, no loop left *)
        (match out.Plan_compile.p_ops with
        | [ Mplan.Put_atom_array { atom; with_len = false; _ } ] ->
            Alcotest.(check int) "fused atom size" 4 atom.Mplan.size
        | ops ->
            Alcotest.failf "expected a fused Put_atom_array, got %d ops"
              (List.length ops));
        (* rounds 1 and 2 both rewrote, so both are traced in caller
           order; the silent round 3 leaves no rows *)
        Alcotest.(check (list (pair string int)))
          "pipeline order and rounds"
          [
            ("loop-blit-fusion", 1); ("chunk-coalesce", 1);
            ("loop-blit-fusion", 2); ("chunk-coalesce", 2);
          ]
          (List.map
             (fun (tr : Pass.trace) -> (tr.Pass.tr_pass, tr.Pass.tr_round))
             !traces);
        (* round 2's fusion is the row that did the work *)
        match
          List.find_opt
            (fun (tr : Pass.trace) ->
              tr.Pass.tr_pass = "loop-blit-fusion" && tr.Pass.tr_round = 2)
            !traces
        with
        | Some tr ->
            Alcotest.(check bool) "round-2 fusion shrank the plan" true
              (tr.Pass.tr_nodes_after < tr.Pass.tr_nodes_before)
        | None -> Alcotest.fail "no round-2 fusion row");
    test "registration order converges in one round on the same plan"
      (fun () ->
        (* the default order (coalesce before fuse) needs no second
           round: its round 2 does zero rewrites and is suppressed, so
           the trace shows exactly the registered passes once *)
        let traces = ref [] in
        let out =
          Pass.run_encode ~config:verify_all
            ~on_trace:(fun tr -> traces := !traces @ [ tr ])
            (two_chunk_loop ())
        in
        (match out.Plan_compile.p_ops with
        | [ Mplan.Put_atom_array _ ] -> ()
        | _ -> Alcotest.fail "expected the same fused result");
        Alcotest.(check (list string))
          "single traced round" Pass.encode_pass_names
          (List.map (fun (tr : Pass.trace) -> tr.Pass.tr_pass) !traces));
    test "a pass that always rewrites stops at max_rounds" (fun () ->
        let calls = ref 0 in
        let spin =
          {
            Pass.p_name = "spin";
            p_transform =
              (fun ?stats p ->
                incr calls;
                (match stats with
                | Some st ->
                    st.Peephole.chunks_merged <- st.Peephole.chunks_merged + 1
                | None -> ());
                p);
          }
        in
        let side =
          {
            Pass.s_name = "encode";
            s_nodes = (fun _ -> 1);
            s_checks = (fun _ -> 0);
            s_verify = (fun _ -> Ok ());
          }
        in
        let rounds = ref [] in
        ignore
          (Pass.run
             ~config:{ Opt_config.selection = Opt_config.All; verify = false }
             ~on_trace:(fun tr -> rounds := !rounds @ [ tr.Pass.tr_round ])
             side [ spin ] ());
        Alcotest.(check int) "transform ran max_rounds times" Pass.max_rounds
          !calls;
        Alcotest.(check (list int))
          "every round traced (each one rewrote)"
          [ 1; 2; 3; 4 ] !rounds);
  ]

(* -- cache overflow resets -------------------------------------------- *)

let reset_tests =
  [
    test "overflow resets are counted separately from evictions" (fun () ->
        let c = Plan_cache.create ~name:"test.resets" ~max_entries:2 () in
        for i = 1 to 5 do
          ignore (Plan_cache.find_or_add c (string_of_int i) (fun () -> i))
        done;
        (* inserting 3 drops {1,2} (2 evictions, 1 reset); inserting 5
           drops {3,4} (2 more evictions, 1 more reset) *)
        let st = Plan_cache.cache_stats c in
        Alcotest.(check int) "misses" 5 st.Plan_cache.misses;
        Alcotest.(check int) "evictions" 4 st.Plan_cache.evictions;
        Alcotest.(check int) "resets" 2 st.Plan_cache.resets;
        Alcotest.(check int) "entries" 1 st.Plan_cache.entries;
        (* reset_all zeroes the odometer too *)
        Plan_cache.reset_all ();
        let st = Plan_cache.cache_stats c in
        Alcotest.(check int) "resets cleared" 0 st.Plan_cache.resets);
  ]

(* -- 2b. reservation sizing: the mach3 union-in-sequence overrun ------ *)

(* A sequence of 13-byte union elements under a 4-alignment advances 16
   bytes per iteration (3 bytes of leading pad), so a reservation sized
   from the unpadded element under-covers and the loop's unchecked
   stores run off the chunk.  The compiler bug was omitting the typed
   descriptor word from the union discriminator's max-size; both the
   type-level fix and the verifier's sufficiency check pin here. *)

let seq_union_case () =
  let mint = Mint.create () in
  let ch = Mint.char8 mint in
  let discrim = Mint.int32 mint in
  let u =
    Mint.union mint ~discrim
      ~cases:[ { Mint.c_const = Mint.Cint 0L; c_body = ch } ]
      ~default:None
  in
  let sequ = Mint.array mint ~elem:u ~min_len:0 ~max_len:(Some 8) in
  let upres =
    Pres.Union
      {
        discrim_field = "_d";
        union_field = "_u";
        arms = [ ("a0", Pres.Direct) ];
        default_arm = None;
      }
  in
  let pres =
    Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = upres }
  in
  (mint, sequ, pres)

let reservation_tests =
  [
    test "verifier rejects an under-sized loop reservation" (fun () ->
        (* per-iteration worst case: 3 (align pad) + 13 (chunk) = 16 *)
        let body =
          [
            Mplan.Align 4;
            Mplan.Chunk
              {
                size = 13;
                align = 1;
                items =
                  [ Mplan.It_atom { off = 0; atom = a32; src = Mplan.Rvar 0 } ];
                check = false;
              };
          ]
        in
        let plan unit_size =
          eplan
            [
              Mplan.Ensure_count { arr = p0; via = seq_via; unit_size };
              Mplan.Loop { arr = p0; via = seq_via; var = 0; body };
            ]
        in
        expect_reject "15-byte unit" (Plan_verify.check_plan (plan 15))
          "under-covers";
        Alcotest.(check bool)
          "16-byte unit accepted" true
          (Plan_verify.check_plan (plan 16) = Ok ()));
    test "mach3 reservation covers a sequence of unions end to end"
      (fun () ->
        let mint, sequ, pres = seq_union_case () in
        let enc = Encoding.mach3 in
        let roots =
          [
            Plan_compile.Rvalue
              (Mplan.Rparam { index = 0; name = "v"; deref = false }, sequ, pres);
          ]
        in
        let plan = Plan_compile.compile ~enc ~mint ~named:[] roots in
        (match Plan_verify.check_plan plan with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "compiler output rejected: %s"
              (Plan_verify.error_to_string e));
        (* 8 elements overran a per-element reservation that forgot the
           discriminator's descriptor word; [Mbuf.contents] then died on
           an out-of-bounds flatten *)
        let v =
          Value.Varray
            (Array.init 8 (fun i ->
                 Value.Vunion
                   {
                     case = 0;
                     discrim = Mint.Cint 0L;
                     payload = Value.Vchar (Char.chr (65 + i));
                   }))
        in
        let encode = Stub_opt.compile_encoder ~enc ~mint ~named:[] roots in
        let buf = Mbuf.create 64 in
        encode buf [| v |];
        let opt_bytes = Bytes.to_string (Mbuf.contents buf) in
        let naive =
          Stub_naive.compile_encoder ~config:Stub_naive.default_config ~enc
            ~mint ~named:[] roots
        in
        let nbuf = Mbuf.create 64 in
        naive nbuf [| v |];
        Alcotest.(check string)
          "optimized bytes match naive"
          (Bytes.to_string (Mbuf.contents nbuf))
          opt_bytes;
        let decode =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (sequ, pres) ]
        in
        let out = decode (Mbuf.reader_of_bytes (Bytes.of_string opt_bytes)) in
        Alcotest.(check bool) "roundtrips" true (Value.equal v out.(0)));
  ]

let suite =
  [
    ("passes:fixtures", fixture_tests);
    ("passes:properties", property_tests);
    ("passes:verifier-negative", negative_tests);
    ("passes:loop-scalar-fusion", fusion_tests);
    ("passes:reservation", reservation_tests);
    ("passes:fixpoint", fixpoint_tests);
    ("passes:config", config_tests);
    ("passes:cache-resets", reset_tests);
  ]
