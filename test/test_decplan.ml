(* Differential pinning of the plan-driven decoder (Dplan_compile +
   Stub_opt.decoder_of_dplan) against the three reference decode paths:
   the closure-tree baseline it replaced (Stub_opt.build_decoder), the
   rpcgen-style engine (Stub_naive), and the interpretive engine
   (Stub_interp).

   For >= 1000 random (MINT, PRES) cases per paper encoding:

   1. all four decoders recover the encoded value (Value.equal, which
      also equates a zero-copy view with its copied form);
   2. truncated prefixes behave identically in the plan and closure
      paths: both fail, or both succeed on the same value (a merged
      chunk check may surface Short_buffer *earlier* than the
      per-datum path, but never changes the outcome);
   3. a corrupted byte (malformed union discriminators, bad booleans,
      oversized counts, ...) keeps the two paths in agreement:
      fail together or decode the same value;
   4. with scatter-gather views on and the borrow threshold dropped to
      3 bytes, the view decode equals the copy decode, and
      materializing it yields an owned value that still compares equal.

   Unit tests below pin the specifics: Short_buffer injection mid-chunk,
   an unknown discriminator on a default-less union, the wire offset in
   the Opt_ptr error, zero-copy accounting on a large payload, and the
   decoder/plan cache hit rates on warm compilations. *)

let rng = Random.State.make [| 0xdec0de |]

let naive_config = Stub_naive.default_config

let encode enc (c : Test_engines.case) v =
  Test_engines.encode_with Test_engines.opt_encoder enc c
    (Test_engines.roots_of c) v

let decoders enc (c : Test_engines.case) =
  let droots = Test_engines.droots_of c in
  ( Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots,
    Stub_opt.build_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots,
    Stub_naive.compile_decoder ~config:naive_config ~enc
      ~mint:c.Test_engines.mint ~named:c.Test_engines.named droots,
    Stub_interp.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots )

type outcome = Ok_value of Value.t | Failed

let run_decoder (d : Stub_opt.decoder) (wire : bytes) : outcome =
  match d (Mbuf.reader_of_bytes wire) with
  | [| v |] -> Ok_value v
  | _ -> Failed
  | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> Failed

let same_outcome a b =
  match (a, b) with
  | Ok_value x, Ok_value y -> Value.equal x y
  | Failed, Failed -> true
  | Ok_value _, Failed | Failed, Ok_value _ -> false

let pp_outcome fmt = function
  | Ok_value v -> Format.fprintf fmt "ok %a" Value.pp v
  | Failed -> Format.pp_print_string fmt "failed"

let decode_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let wire = Bytes.of_string (encode enc c v) in
  let dec_plan, dec_closure, dec_naive, dec_interp = decoders enc c in
  (* 1. four-way agreement on well-formed input *)
  let v_plan =
    match run_decoder dec_plan wire with
    | Ok_value v' -> v'
    | Failed ->
        QCheck.Test.fail_reportf "plan decode failed on %s"
          c.Test_engines.label
  in
  if not (Value.equal v_plan v) then
    QCheck.Test.fail_reportf "plan decode mismatch on %s:@.%a@.%a"
      c.Test_engines.label Value.pp v Value.pp v_plan;
  List.iter
    (fun (name, d) ->
      match run_decoder d wire with
      | Ok_value v' when Value.equal v' v_plan -> ()
      | out ->
          QCheck.Test.fail_reportf "plan/%s decode disagree on %s: %a"
            name c.Test_engines.label pp_outcome out)
    [ ("closure", dec_closure); ("naive", dec_naive); ("interp", dec_interp) ];
  (* 2. truncation parity between the plan and closure paths *)
  let n = Bytes.length wire in
  List.iter
    (fun cut ->
      if cut >= 0 && cut < n then begin
        let prefix = Bytes.sub wire 0 cut in
        let a = run_decoder dec_plan prefix
        and b = run_decoder dec_closure prefix in
        if not (same_outcome a b) then
          QCheck.Test.fail_reportf
            "truncation at %d/%d disagrees on %s: plan %a, closure %a" cut n
            c.Test_engines.label pp_outcome a pp_outcome b
      end)
    [ n - 1; n / 2; n - 3 ];
  (* 3. corruption parity (hits union discriminators, bools, counts) *)
  if n > 0 then begin
    let corrupt = Bytes.copy wire in
    let at = Random.State.int rng n in
    Bytes.set corrupt at
      (Char.chr (Char.code (Bytes.get corrupt at) lxor (1 lsl Random.State.int rng 8)));
    let a = run_decoder dec_plan corrupt
    and b = run_decoder dec_closure corrupt in
    if not (same_outcome a b) then
      QCheck.Test.fail_reportf
        "corrupt byte %d disagrees on %s: plan %a, closure %a" at
        c.Test_engines.label pp_outcome a pp_outcome b
  end;
  (* 4. zero-copy views equal the copy decode, before and after
        materialization *)
  Test_sgwire.with_sg ~on:true ~threshold:3 (fun () ->
      let dec_view =
        Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
          ~named:c.Test_engines.named ~views:true (Test_engines.droots_of c)
      in
      match run_decoder dec_view wire with
      | Failed ->
          QCheck.Test.fail_reportf "view decode failed on %s"
            c.Test_engines.label
      | Ok_value vv ->
          if not (Value.equal vv v_plan) then
            QCheck.Test.fail_reportf "view/copy decode mismatch on %s:@.%a@.%a"
              c.Test_engines.label Value.pp v_plan Value.pp vv;
          if not (Value.equal (Value.materialize vv) v_plan) then
            QCheck.Test.fail_reportf "materialized view mismatch on %s"
              c.Test_engines.label);
  true

let qtest enc =
  let name = enc.Encoding.name ^ ": plan decode = closure = naive = interp" in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name Test_engines.arbitrary_case
       (decode_prop enc))

let property_tests =
  List.map qtest
    [
      Encoding.xdr; Encoding.cdr; Encoding.mach3;
      (* the value-dependent formats run the same 1000-case
         differential: variable headers must truncate and corrupt with
         the same typed failures as the fixed layouts *)
      Encoding.msgpack; Encoding.cbor;
    ]

(* -- targeted failure injection --------------------------------------- *)

let int4_struct () =
  let mint = Mint.create () in
  let i32 = Mint.int32 mint in
  let idx =
    Mint.struct_ mint [ ("a", i32); ("b", i32); ("c", i32); ("d", i32) ]
  in
  let pres =
    Pres.Struct
      [ ("a", Pres.Direct); ("b", Pres.Direct); ("c", Pres.Direct);
        ("d", Pres.Direct) ]
  in
  (mint, idx, pres)

let failure_tests =
  [
    Alcotest.test_case "Short_buffer mid-chunk: plan and closure both fail"
      `Quick (fun () ->
        (* four int32 fields compile to ONE chunk with one 16-byte
           check; cutting at byte 6 lands inside it *)
        let mint, idx, pres = int4_struct () in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 32 in
        for i = 1 to 4 do
          Mbuf.put_i32 buf ~be:true (i * 7)
        done;
        let wire = Bytes.sub (Mbuf.contents buf) 0 6 in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        let dec_plan = Stub_opt.compile_decoder ~enc ~mint ~named:[] droots in
        let dec_closure = Stub_opt.build_decoder ~enc ~mint ~named:[] droots in
        (match dec_plan (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "plan decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
        match dec_closure (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "closure decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
    Alcotest.test_case "unknown union discriminator is rejected by both paths"
      `Quick (fun () ->
        let mint = Mint.create () in
        let discrim = Mint.int32 mint in
        let idx =
          Mint.union mint ~discrim
            ~cases:
              [
                { Mint.c_const = Mint.Cint 0L; c_body = Mint.int32 mint };
                { Mint.c_const = Mint.Cint 1L; c_body = Mint.bool_ mint };
              ]
            ~default:None
        in
        let pres =
          Pres.Union
            {
              discrim_field = "_d";
              union_field = "_u";
              arms = [ ("a0", Pres.Direct); ("a1", Pres.Direct) ];
              default_arm = None;
            }
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 999 (* no such arm *);
        Mbuf.put_i32 buf ~be:true 42;
        let wire = Mbuf.contents buf in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        List.iter
          (fun (name, d) ->
            match d (Mbuf.reader_of_bytes wire) with
            | (_ : Value.t array) ->
                Alcotest.fail (name ^ " accepted an unknown discriminator")
            | exception Codec.Decode_error _ -> ())
          [
            ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
            ("closure", Stub_opt.build_decoder ~enc ~mint ~named:[] droots);
            ("naive", Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[] droots);
          ]);
    Alcotest.test_case "sub-32-bit array elements narrow alike in every engine"
      `Quick (fun () ->
        (* XDR widens shorts to 4-byte words.  A word whose high
           half is not its element's extension still decodes, to its low
           [bits] bits sign- or zero-extended, in the fast integer-array
           paths exactly as in the per-element reference engines. *)
        let enc = Encoding.xdr in
        let words = [ 0x00000007; 0xff01fffd ] in
        let wire ~counted =
          let buf = Mbuf.create 16 in
          if counted then Mbuf.put_i32 buf ~be:true (List.length words);
          List.iter (fun w -> Mbuf.put_i32 buf ~be:true w) words;
          Mbuf.contents buf
        in
        List.iter
          (fun (bits, signed, expect) ->
            List.iter
              (fun counted ->
                let mint = Mint.create () in
                let elem = Mint.int_ mint ~bits ~signed in
                let idx, pres =
                  if counted then
                    ( Mint.array mint ~elem ~min_len:0 ~max_len:(Some 8),
                      Pres.Counted_seq
                        { len_field = "len"; buf_field = "val"; elem = Pres.Direct } )
                  else (Mint.fixed_array mint ~elem ~len:2, Pres.Fixed_array Pres.Direct)
                in
                let droots = [ Stub_opt.Dvalue (idx, pres) ] in
                let dplan =
                  Plan_cache.dplan ~enc ~mint ~named:[]
                    (List.map Stub_opt.to_dplan_droot droots)
                in
                let wire = wire ~counted in
                let want = Ok_value (Value.Vint_array expect) in
                List.iter
                  (fun (name, d) ->
                    let got = run_decoder d wire in
                    if not (same_outcome got want) then
                      Alcotest.failf "%s, %d-bit %s %s: %a, want %a" name bits
                        (if signed then "signed" else "unsigned")
                        (if counted then "sequence" else "array")
                        pp_outcome got pp_outcome want)
                  [
                    ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
                    ("tier 0", Stub_opt.decoder_of_dplan ~enc dplan);
                    ("staged", Option.get (Stub_opt.staged_decoder_of_dplan ~enc dplan));
                    ("closure", Stub_opt.build_decoder ~enc ~mint ~named:[] droots);
                    ("naive", Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[] droots);
                    ("interp", Stub_interp.compile_decoder ~enc ~mint ~named:[] droots);
                  ])
              [ true; false ])
          [
            (16, true, [| 7; -3 |]);
            (16, false, [| 7; 0xfffd |]);
          ]);
    Alcotest.test_case "Opt_ptr error carries the wire offset" `Quick
      (fun () ->
        (* an int32 ahead of the optional puts its count word at byte 4 *)
        let mint = Mint.create () in
        let i32 = Mint.int32 mint in
        let opt =
          Mint.array mint ~elem:i32 ~min_len:0 ~max_len:(Some 1)
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 5;
        Mbuf.put_i32 buf ~be:true 2 (* invalid count *);
        let wire = Mbuf.contents buf in
        let droots =
          [
            Stub_opt.Dvalue (i32, Pres.Direct);
            Stub_opt.Dvalue (opt, Pres.Opt_ptr Pres.Direct);
          ]
        in
        let expect_offset name d =
          match d (Mbuf.reader_of_bytes wire) with
          | (_ : Value.t array) ->
              Alcotest.fail (name ^ " accepted an invalid optional count")
          | exception Codec.Decode_error msg ->
              Alcotest.(check string)
                (name ^ " message")
                "optional count 2 at byte 4" msg
        in
        expect_offset "plan"
          (Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
        expect_offset "closure"
          (Stub_opt.build_decoder ~enc ~mint ~named:[] droots);
        expect_offset "naive"
          (Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
             ~named:[] droots));
  ]

(* -- zero-copy accounting --------------------------------------------- *)

let view_tests =
  [
    Alcotest.test_case "large payload decodes as a view, copying nothing"
      `Quick (fun () ->
        Test_sgwire.with_sg ~on:true ~threshold:64 (fun () ->
            let mint = Mint.create () in
            let str = Mint.string_ mint ~max_len:None in
            let enc = Encoding.xdr in
            let payload = String.make 1024 'x' in
            let droots = [ Stub_opt.Dvalue (str, Pres.Terminated_string) ] in
            let buf = Mbuf.create 2048 in
            Stub_opt.compile_encoder ~enc ~mint ~named:[]
              [
                Plan_compile.Rvalue
                  ( Mplan.Rparam { index = 0; name = "p"; deref = false },
                    str, Pres.Terminated_string );
              ]
              buf
              [| Value.Vstring payload |];
            let wire = Mbuf.contents buf in
            let dec_view =
              Stub_opt.compile_decoder ~enc ~mint ~named:[] ~views:true droots
            in
            Mbuf.reset_reader_stats ();
            let out = dec_view (Mbuf.reader_of_bytes wire) in
            let st = Mbuf.reader_stats () in
            Alcotest.(check int) "payload bytes copied" 0 st.Mbuf.rbytes_copied;
            Alcotest.(check bool)
              "payload bytes viewed" true
              (st.Mbuf.rbytes_viewed >= 1024);
            (match out.(0) with
            | Value.Vstring_view v ->
                Alcotest.(check string)
                  "view contents" payload (Value.string_of_view v)
            | _ -> Alcotest.fail "expected a Vstring_view");
            match Value.materialize out.(0) with
            | Value.Vstring s ->
                Alcotest.(check string) "materialized contents" payload s
            | _ -> Alcotest.fail "materialize did not yield an owned string"));
  ]

(* -- decoder cache ----------------------------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "warm decoder compilations hit both caches" `Quick
      (fun () ->
        Plan_cache.reset_all ();
        let mint, idx, pres = int4_struct () in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        for _ = 1 to 10 do
          ignore
            (Stub_opt.compile_decoder ~enc:Encoding.xdr ~mint ~named:[] droots
              : Stub_opt.decoder)
        done;
        (* the plan cache sits behind the decoder-closure cache, so hit
           it directly as dump-plan and the C back ends do *)
        for _ = 1 to 10 do
          ignore
            (Plan_cache.dplan ~enc:Encoding.xdr ~mint ~named:[]
               [ Dplan_compile.Dvalue (idx, pres) ]
              : Dplan.plan)
        done;
        let stats name =
          match List.assoc_opt name (Plan_cache.all_stats ()) with
          | Some st -> st
          | None -> Alcotest.fail ("no cache registered under " ^ name)
        in
        let dec = stats "stub_opt.decoder" in
        Alcotest.(check int) "decoder misses" 1 dec.Plan_cache.misses;
        Alcotest.(check int) "decoder hits" 9 dec.Plan_cache.hits;
        let dp = stats "dplan" in
        (* one miss from the decoder compilation, then 10 direct hits *)
        Alcotest.(check int) "dplan misses" 1 dp.Plan_cache.misses;
        Alcotest.(check int) "dplan hits" 10 dp.Plan_cache.hits);
  ]

(* A fixed array of shorts inside a sequence of structs: under msgpack
   and CBOR each short takes 1 to 3 bytes, so the element loop has no
   static advance and must not ride a hoisted reservation (it once
   reserved 17 bytes an element and rejected well-formed messages with
   Short_buffer). *)
let s3_idl =
  "struct s1 { double f; }; struct s3 { short a[2]; short b[2]; s1 c; };\n\
   typedef sequence<s3> s3_seq; interface T { void f(in s3_seq x); };"

let verify_config = { (Opt_config.default ()) with Opt_config.verify = true }

let selfdesc_array_tests =
  let ms =
    lazy
      (Paper_fixtures.request_spec
         (Presgen_corba.generate (Corba_parser.parse ~file:"s3.idl" s3_idl) [ "T" ])
         ~op:"f")
  in
  let elem a b =
    Value.Vstruct
      [| Value.Vint_array a; Value.Vint_array b; Value.Vstruct [| Value.Vfloat 1.5 |] |]
  in
  let v =
    Value.Varray [| elem [| 1; 2 |] [| 3; 4 |]; elem [| -300; 7 |] [| 0; 32767 |] |]
  in
  List.map
    (fun enc ->
      Alcotest.test_case
        (Printf.sprintf "short arrays in a sequence of structs (%s)" enc.Encoding.name)
        `Quick (fun () ->
          let ms = Lazy.force ms in
          let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
          let w = Mbuf.create 64 in
          (Stub_opt.compile_encoder ~config:verify_config ~enc ~mint ~named
             ms.Paper_fixtures.ms_roots)
            w [| v |];
          let wire = Mbuf.contents w in
          let opt =
            Stub_opt.compile_decoder ~config:verify_config ~enc ~mint ~named
              ms.Paper_fixtures.ms_droots
          in
          let naive =
            Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named
              ms.Paper_fixtures.ms_droots
          in
          let got = run_decoder opt wire in
          Alcotest.(check bool) "the optimized decoder accepts the message" true
            (got <> Failed);
          Alcotest.(check bool) "and agrees with the naive decoder" true
            (same_outcome got (run_decoder naive wire))))
    [ Encoding.msgpack; Encoding.cbor ]
  @ [
      Alcotest.test_case "verifier rejects a reservation over var atom arrays"
        `Quick (fun () ->
          let plan var =
            let a16 =
              { Mplan.kind = Encoding.Kint { bits = 16; signed = true }; size = 2;
                align = 1 }
            in
            {
              Dplan.d_nslots = 1;
              d_ops =
                [
                  Dplan.D_loop
                    {
                      count = Dplan.Dc_len { min_len = 0; max_len = None; what = "s" };
                      ensure = Some 4;
                      frame =
                        {
                          Dplan.f_nslots = 1;
                          f_ops =
                            [
                              Dplan.D_get_atom_array
                                { count = Dplan.Dc_fixed 2; atom = a16; var; slot = 0 };
                            ];
                          f_shape = Dplan.Sh_slot 0;
                        };
                      slot = 0;
                    };
                ];
              d_shapes = [ Dplan.Sh_slot 0 ];
              d_subs = [];
            }
          in
          Alcotest.(check bool) "fixed-width elements: exact" true
            (Plan_verify.check_dplan (plan false) = Ok ());
          Alcotest.(check bool) "value-dependent elements: rejected" true
            (Plan_verify.check_dplan (plan true) <> Ok ()));
    ]

let suite =
  [
    ("decplan:differential", property_tests);
    ("decplan:failures", failure_tests);
    ("decplan:selfdesc-arrays", selfdesc_array_tests);
    ("decplan:views", view_tests);
    ("decplan:cache", cache_tests);
  ]
