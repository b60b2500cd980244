(* The peephole optimizer and the compiled-plan cache.

   Two layers of defense:
   - structural tests pin each rewrite (chunk coalescing, loop fusion,
     ensure hoisting, dead-op removal) on hand-built plans;
   - differential qcheck properties prove the whole pass byte-preserving
     against the naive engine on >= 1000 random (type, value) cases per
     encoding, for both the default and the per-datum plan shapes. *)

let test name f = Alcotest.test_case name `Quick f
let rv0 name = Mplan.Rparam { index = 0; name; deref = false }

let seq_via = Mplan.Via_seq { len_field = "len"; buf_field = "val" }

let pp_ops ops = Format.asprintf "%a" Mplan.pp ops

let check_ops msg expected actual =
  Alcotest.(check string) msg (pp_ops expected) (pp_ops actual)

(* -- structural: each rewrite on a hand-built plan -------------------- *)

let atom32 = { Mplan.kind = Encoding.Kint { bits = 32; signed = true }; size = 4; align = 4 }
let atom8 = { Mplan.kind = Encoding.Kchar; size = 1; align = 1 }

let it_atom off src = Mplan.It_atom { off; atom = atom32; src }

let structural_tests =
  [
    test "adjacent chunks coalesce: offsets shift, one check survives"
      (fun () ->
        let st = Peephole.fresh_stats () in
        let out =
          Peephole.optimize ~stats:st
            [
              Mplan.Chunk
                { size = 8; align = 4; items = [ it_atom 0 (rv0 "a"); it_atom 4 (rv0 "b") ]; check = true };
              Mplan.Chunk
                { size = 4; align = 4; items = [ it_atom 0 (rv0 "c") ]; check = false };
            ]
        in
        check_ops "merged"
          [
            Mplan.Chunk
              {
                size = 12;
                align = 4;
                items = [ it_atom 0 (rv0 "a"); it_atom 4 (rv0 "b"); it_atom 8 (rv0 "c") ];
                check = true;
              };
          ]
          out;
        Alcotest.(check int) "one merge recorded" 1 st.Peephole.chunks_merged);
    test "a run of chunks collapses to one (recovers chunking across struct \
          boundaries)" (fun () ->
        let chunks =
          List.init 10 (fun i ->
              Mplan.Chunk
                { size = 4; align = 4; items = [ it_atom 0 (rv0 (Printf.sprintf "f%d" i)) ]; check = true })
        in
        match Peephole.optimize chunks with
        | [ Mplan.Chunk { size = 40; items; check = true; _ } ] ->
            Alcotest.(check int) "items" 10 (List.length items)
        | ops -> Alcotest.failf "expected one 40-byte chunk, got:@.%s" (pp_ops ops));
    test "no-op and doubled alignments disappear" (fun () ->
        let out =
          Peephole.optimize
            [ Mplan.Align 1; Mplan.Align 4; Mplan.Align 8; Mplan.Align 2 ]
        in
        check_ops "one align" [ Mplan.Align 8 ] out);
    test "gapless one-atom loops fuse into Put_atom_array" (fun () ->
        let st = Peephole.fresh_stats () in
        let out =
          Peephole.optimize ~stats:st
            [
              Mplan.Loop
                {
                  arr = rv0 "xs";
                  via = seq_via;
                  var = 0;
                  body =
                    [
                      Mplan.Chunk
                        { size = 4; align = 4; items = [ it_atom 0 (Mplan.Rvar 0) ]; check = true };
                    ];
                };
            ]
        in
        check_ops "fused"
          [ Mplan.Put_atom_array { arr = rv0 "xs"; via = seq_via; atom = atom32; with_len = false; max_len = None } ]
          out;
        Alcotest.(check int) "one fusion recorded" 1 st.Peephole.loops_fused);
    test "fusion drops the now-redundant Ensure_count" (fun () ->
        let out =
          Peephole.optimize
            [
              Mplan.Ensure_count { arr = rv0 "xs"; via = seq_via; unit_size = 4 };
              Mplan.Loop
                {
                  arr = rv0 "xs";
                  via = seq_via;
                  var = 0;
                  body =
                    [
                      Mplan.Chunk
                        { size = 4; align = 4; items = [ it_atom 0 (Mplan.Rvar 0) ]; check = false };
                    ];
                };
            ]
        in
        check_ops "one op"
          [ Mplan.Put_atom_array { arr = rv0 "xs"; via = seq_via; atom = atom32; with_len = false; max_len = None } ]
          out);
    test "optional loops are not fused (Put_atom_array cannot walk \
          optionals)" (fun () ->
        let loop =
          Mplan.Loop
            {
              arr = rv0 "o";
              via = Mplan.Via_opt;
              var = 0;
              body =
                [
                  Mplan.Chunk
                    { size = 4; align = 4; items = [ it_atom 0 (Mplan.Rvar 0) ]; check = true };
                ];
            }
        in
        match Peephole.optimize [ loop ] with
        | [ Mplan.Loop _ ] -> ()
        | ops -> Alcotest.failf "expected the loop untouched, got:@.%s" (pp_ops ops));
    test "bounded loop bodies get one hoisted reservation" (fun () ->
        let st = Peephole.fresh_stats () in
        let body =
          [
            Mplan.Chunk { size = 4; align = 4; items = [ it_atom 0 (Mplan.Rvar 0) ]; check = true };
            Mplan.Put_const_str { s = "tag"; nul = false; pad = 1 };
            Mplan.Chunk
              {
                size = 2;
                align = 1;
                items =
                  [ Mplan.It_atom { off = 0; atom = atom8; src = Mplan.Rvar 0 };
                    Mplan.It_atom { off = 1; atom = atom8; src = Mplan.Rvar 0 } ];
                check = true;
              };
          ]
        in
        let out =
          Peephole.optimize ~stats:st
            [ Mplan.Loop { arr = rv0 "xs"; via = seq_via; var = 0; body } ]
        in
        (match out with
        | [
         Mplan.Ensure_count { unit_size; _ };
         Mplan.Loop { body = [ Mplan.Chunk { check = false; _ }; Mplan.Put_const_str _; Mplan.Chunk { check = false; _ } ]; _ };
        ] ->
            (* 4 (chunk) + 4+3+1 (const str) + 2 (chunk) *)
            Alcotest.(check int) "unit" 14 unit_size
        | ops -> Alcotest.failf "expected hoisted ensure, got:@.%s" (pp_ops ops));
        Alcotest.(check int) "one hoist recorded" 1 st.Peephole.ensures_hoisted);
    test "loops with dynamic-size bodies are left alone" (fun () ->
        let body =
          [
            Mplan.Put_string
              { src = Mplan.Rvar 0; nul = false; pad = 4; len_src = None;
                borrow = false; max_len = None };
            Mplan.Chunk { size = 4; align = 4; items = [ it_atom 0 (Mplan.Rvar 0) ]; check = true };
          ]
        in
        match
          Peephole.optimize [ Mplan.Loop { arr = rv0 "xs"; via = seq_via; var = 0; body } ]
        with
        | [ Mplan.Loop { body = [ Mplan.Put_string _; Mplan.Chunk { check = true; _ } ]; _ } ] -> ()
        | ops -> Alcotest.failf "expected no hoist, got:@.%s" (pp_ops ops));
    test "rewrites reach switch arms and nested loops" (fun () ->
        let arm_body =
          [
            Mplan.Chunk { size = 4; align = 4; items = [ it_atom 0 (rv0 "u") ]; check = true };
            Mplan.Chunk { size = 4; align = 4; items = [ it_atom 0 (rv0 "v") ]; check = true };
          ]
        in
        let sw =
          Mplan.Switch
            {
              u = rv0 "u";
              discrim_atom = Some atom32;
              arms = [ { Mplan.a_const = Mint.Cint 0L; a_case = 0; a_member = "a"; a_body = arm_body } ];
              default = None;
              union_field = "_u";
              discrim_field = "_d";
            }
        in
        match Peephole.optimize [ sw ] with
        | [ Mplan.Switch { arms = [ { Mplan.a_body = [ Mplan.Chunk { size = 8; _ } ]; _ } ]; _ } ] -> ()
        | ops -> Alcotest.failf "expected merged arm body, got:@.%s" (pp_ops ops));
    test "optimize is idempotent on the per-datum directory plan" (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
        let plan =
          Plan_compile.compile ~enc:Encoding.xdr ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named ~chunked:false
            spec.Paper_fixtures.ms_roots
        in
        let once = Peephole.optimize_plan plan in
        let twice = Peephole.optimize_plan once in
        check_ops "fixpoint" once.Plan_compile.p_ops twice.Plan_compile.p_ops);
    test "peephole recovers chunking on the per-datum directory plan"
      (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
        let compile chunked =
          Plan_compile.compile ~enc:Encoding.xdr ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named ~chunked
            spec.Paper_fixtures.ms_roots
        in
        let per_datum = compile false in
        let optimized = Peephole.optimize_plan per_datum in
        let count p = Mplan.count_ops p.Plan_compile.p_ops in
        if count optimized >= count per_datum then
          Alcotest.failf "no reduction: %d -> %d" (count per_datum) (count optimized);
        (* the optimized per-datum plan must match the chunked plan's size:
           the peephole pass recovers what the compiler was told not to do *)
        let chunked = compile true in
        Alcotest.(check int)
          "matches the optimizing compiler's own node count" (count chunked)
          (count optimized));
  ]

(* -- goldens: the optimizer's decisions as reviewable diffs ----------- *)

let read_golden name =
  let path = Filename.concat "goldens" name in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_check name rendered =
  Alcotest.(check string) name (String.trim (read_golden name)) (String.trim rendered)

let mail_request_plan ~enc ~chunked =
  let spec = Corba_parser.parse ~file:"mail.idl" Paper_fixtures.mail_corba in
  let pc = Presgen_corba.generate spec [ "Mail" ] in
  let ms = Paper_fixtures.request_spec pc ~op:"send" in
  Plan_compile.compile ~enc ~mint:ms.Paper_fixtures.ms_mint
    ~named:ms.Paper_fixtures.ms_named ~chunked ms.Paper_fixtures.ms_roots

let dirents_request_plan ~enc ~chunked =
  let pc = Paper_fixtures.bench_presc `Rpcgen in
  let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
  Plan_compile.compile ~enc ~mint:spec.Paper_fixtures.ms_mint
    ~named:spec.Paper_fixtures.ms_named ~chunked spec.Paper_fixtures.ms_roots

let golden_tests =
  [
    test "golden: Mail request plan before/after peephole (mach3)" (fun () ->
        let plan = mail_request_plan ~enc:Encoding.mach3 ~chunked:false in
        golden_check "mail_mach3_before.golden" (pp_ops plan.Plan_compile.p_ops);
        let opt = Peephole.optimize_plan plan in
        golden_check "mail_mach3_after.golden" (pp_ops opt.Plan_compile.p_ops));
    test "golden: Mail request plan is already optimal under CDR" (fun () ->
        let plan = mail_request_plan ~enc:Encoding.cdr ~chunked:true in
        golden_check "mail_cdr_before.golden" (pp_ops plan.Plan_compile.p_ops);
        let opt = Peephole.optimize_plan plan in
        (* conservatism: nothing to rewrite, nothing rewritten *)
        golden_check "mail_cdr_before.golden" (pp_ops opt.Plan_compile.p_ops));
    test "golden: per-datum directory plan before/after peephole (xdr)"
      (fun () ->
        let plan = dirents_request_plan ~enc:Encoding.xdr ~chunked:false in
        golden_check "dirents_xdr_per_datum_before.golden"
          (pp_ops plan.Plan_compile.p_ops);
        let opt = Peephole.optimize_plan plan in
        golden_check "dirents_xdr_per_datum_after.golden"
          (pp_ops opt.Plan_compile.p_ops));
  ]

(* -- differential properties ------------------------------------------ *)

let rng = Random.State.make [| 0xbeef |]

let encode_plan ~enc plan v =
  let encoder = Stub_opt.encoder_of_plan ~enc plan in
  let buf = Mbuf.create 64 in
  encoder buf [| v |];
  Bytes.to_string (Mbuf.contents buf)

(* For one random (type, value): the peephole-optimized plan, the raw
   plan, the per-datum plan and its optimization, the cached engine
   encoder, and the naive engine must all produce identical bytes. *)
let byte_identity_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let roots = Test_engines.roots_of c in
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let raw = Plan_compile.compile ~enc ~mint ~named roots in
  let per_datum = Plan_compile.compile ~enc ~mint ~named ~chunked:false roots in
  let reference = encode_plan ~enc raw v in
  let candidates =
    [
      ("peephole", encode_plan ~enc (Peephole.optimize_plan raw) v);
      ("per-datum", encode_plan ~enc per_datum v);
      ("peephole per-datum", encode_plan ~enc (Peephole.optimize_plan per_datum) v);
      ( "cached engine",
        Test_engines.encode_with Test_engines.opt_encoder enc c roots v );
      ( "naive engine",
        Test_engines.encode_with
          (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
          enc c roots v );
    ]
  in
  List.iter
    (fun (what, bytes) ->
      if bytes <> reference then
        QCheck.Test.fail_reportf "%s bytes differ on %s:@.%s@.%s" what
          c.Test_engines.label
          (Test_engines.hex reference) (Test_engines.hex bytes))
    candidates;
  true

let qtest ~count name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name Test_engines.arbitrary_case prop)

let differential_tests =
  List.map
    (fun enc ->
      let n = enc.Encoding.name in
      (* the acceptance bar: >= 1000 cases on the two paper encodings *)
      let count = if n = "xdr" || n = "cdr" then 1000 else 400 in
      qtest ~count
        (Printf.sprintf "%s: peephole + cache byte-identical (%d cases)" n count)
        (byte_identity_prop enc))
    Encoding.all

(* -- the plan/encoder/decoder caches ---------------------------------- *)

let dir_spec () =
  let pc = Paper_fixtures.bench_presc `Rpcgen in
  Paper_fixtures.request_spec pc ~op:"send_dirents"

let cache_tests =
  [
    test "repeated compilation returns the same plan object" (fun () ->
        let spec = dir_spec () in
        let get () =
          Plan_cache.plan ~enc:Encoding.xdr ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
        in
        Alcotest.(check bool) "physically equal" true (get () == get ()));
    test "encoder and decoder closures are reused on repeat compilation"
      (fun () ->
        let spec = dir_spec () in
        let enc () =
          Stub_opt.compile_encoder ~enc:Encoding.xdr
            ~mint:spec.Paper_fixtures.ms_mint ~named:spec.Paper_fixtures.ms_named
            spec.Paper_fixtures.ms_roots
        in
        let dec () =
          Stub_opt.compile_decoder ~enc:Encoding.xdr
            ~mint:spec.Paper_fixtures.ms_mint ~named:spec.Paper_fixtures.ms_named
            spec.Paper_fixtures.ms_droots
        in
        Alcotest.(check bool) "encoder reused" true (enc () == enc ());
        Alcotest.(check bool) "decoder reused" true (dec () == dec ()));
    test "hit rate exceeds 90% on a repeated compilation workload" (fun () ->
        Plan_cache.reset_all ();
        let pc_r = Paper_fixtures.bench_presc `Rpcgen in
        let pc_c = Paper_fixtures.bench_presc `Corba in
        for _round = 1 to 20 do
          List.iter
            (fun op ->
              List.iter
                (fun (pc, enc) ->
                  let spec = Paper_fixtures.request_spec pc ~op in
                  ignore
                    (Stub_opt.compile_encoder ~enc
                       ~mint:spec.Paper_fixtures.ms_mint
                       ~named:spec.Paper_fixtures.ms_named
                       spec.Paper_fixtures.ms_roots
                      : Stub_opt.encoder);
                  ignore
                    (Stub_opt.compile_decoder ~enc
                       ~mint:spec.Paper_fixtures.ms_mint
                       ~named:spec.Paper_fixtures.ms_named
                       spec.Paper_fixtures.ms_droots
                      : Stub_opt.decoder))
                [ (pc_r, Encoding.xdr); (pc_c, Encoding.cdr) ])
            [ "send_ints"; "send_rects"; "send_dirents" ]
        done;
        let hits, misses =
          List.fold_left
            (fun (h, m) (_, st) ->
              (h + st.Plan_cache.hits, m + st.Plan_cache.misses))
            (0, 0) (Plan_cache.all_stats ())
        in
        let rate = float_of_int hits /. float_of_int (hits + misses) in
        if rate < 0.9 then
          Alcotest.failf "hit rate %.2f (hits %d, misses %d)" rate hits misses);
    test "structurally different messages never alias one cache entry"
      (fun () ->
        let m = Mint.create () in
        let a = Mint.struct_ m [ ("x", Mint.int32 m); ("y", Mint.int32 m) ] in
        let b = Mint.struct_ m [ ("x", Mint.int32 m); ("y", Mint.char8 m) ] in
        let pres = Pres.Struct [ ("x", Pres.Direct); ("y", Pres.Direct) ] in
        let enc_for idx =
          Stub_opt.compile_encoder ~enc:Encoding.cdr ~mint:m ~named:[]
            [ Plan_compile.Rvalue (rv0 "v", idx, pres) ]
        in
        let ea = enc_for a and eb = enc_for b in
        Alcotest.(check bool) "distinct encoders" false (ea == eb);
        let run e v =
          let buf = Mbuf.create 32 in
          e buf [| v |];
          Bytes.to_string (Mbuf.contents buf)
        in
        Alcotest.(check int) "int/int layout" 8
          (String.length (run ea (Value.Vstruct [| Value.Vint 1; Value.Vint 2 |])));
        Alcotest.(check int) "int/char layout" 5
          (String.length (run eb (Value.Vstruct [| Value.Vint 1; Value.Vchar 'c' |]))));
    test "cyclic types fingerprint without diverging" (fun () ->
        let m = Mint.create () in
        let node = Mint.reserve m in
        let next = Mint.array m ~elem:node ~min_len:0 ~max_len:(Some 1) in
        Mint.set m node (Mint.Struct [ ("v", Mint.int32 m); ("next", next) ]);
        let pres =
          Pres.Struct [ ("v", Pres.Direct); ("next", Pres.Opt_ptr (Pres.Ref "node")) ]
        in
        let named = [ ("node", (node, pres)) ] in
        let get () =
          Stub_opt.compile_encoder ~enc:Encoding.xdr ~mint:m ~named
            [ Plan_compile.Rvalue (rv0 "n", node, Pres.Ref "node") ]
        in
        Alcotest.(check bool) "cached" true (get () == get ()));
  ]

let suite =
  [
    ("peephole:structural", structural_tests);
    ("peephole:goldens", golden_tests);
    ("peephole:differential", differential_tests);
    ("peephole:cache", cache_tests);
  ]
