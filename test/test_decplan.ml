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

(* -- window edges --------------------------------------------------- *)

(* The in-window kernels (Codec.read_i32s, the msgpack/CBOR integer run)
   and every chunk check must decode a message cut into segments at any
   byte exactly as they decode it whole: the same value, or the same
   exception on a truncated prefix. *)

type edge_outcome = Decoded of Value.t | Raised of string

let edge_outcome d r =
  match d r with
  | [| v |] -> Decoded v
  | _ -> Raised "arity"
  | exception Mbuf.Short_buffer -> Raised "Short_buffer"
  | exception Codec.Decode_error _ -> Raised "Decode_error"

let pp_edge fmt = function
  | Decoded v -> Format.fprintf fmt "ok %a" Value.pp v
  | Raised e -> Format.pp_print_string fmt e

(* a reader over [wire.[0 .. len)] whose segments end at [cuts], each
   segment a copy of its own, so nothing past a window's end is
   readable *)
let segmented ?(len = -1) (wire : bytes) cuts =
  let len = if len < 0 then Bytes.length wire else len in
  let w = Mbuf.create 16 in
  let piece a b = Mbuf.put_borrow_bytes w (Bytes.sub wire a (b - a)) 0 (b - a) in
  let prev =
    List.fold_left
      (fun prev c ->
        if c > prev && c < len then begin
          piece prev c;
          c
        end
        else prev)
      0 (List.sort_uniq compare cuts)
  in
  if len > prev then piece prev len;
  Mbuf.reader w

let random_cuts n =
  if n < 2 then []
  else if Random.State.int rng 4 = 0 then List.init (n - 1) (fun i -> i + 1)
  else List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng (n - 1))

let window_edge_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let wire = Bytes.of_string (encode enc c v) in
  let d =
    Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named (Test_engines.droots_of c)
  in
  let n = Bytes.length wire in
  List.iter
    (fun len ->
      let cuts = random_cuts len in
      let whole = edge_outcome d (Mbuf.reader_of_bytes ~len wire)
      and cut = edge_outcome d (segmented ~len wire cuts) in
      let same =
        match (whole, cut) with
        | Decoded a, Decoded b -> Value.equal a b
        | Raised a, Raised b -> a = b
        | Decoded _, Raised _ | Raised _, Decoded _ -> false
      in
      if not same then
        QCheck.Test.fail_reportf
          "%s, %d/%d bytes cut at [%s]: whole %a, segmented %a"
          c.Test_engines.label len n
          (String.concat ";" (List.map string_of_int cuts))
          pp_edge whole pp_edge cut;
      match whole with
      | Decoded x when len = n && not (Value.equal x v) ->
          QCheck.Test.fail_reportf "%s: whole decode %a" c.Test_engines.label
            pp_edge whole
      | Raised _ when len = n ->
          QCheck.Test.fail_reportf "%s: whole decode %a" c.Test_engines.label
            pp_edge whole
      | Decoded _ | Raised _ -> ())
    [ n; (if n > 0 then Random.State.int rng n else 0) ];
  true

let window_edge_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:300
           ~name:(enc.Encoding.name ^ ": segmented decode = contiguous decode")
           Test_engines.arbitrary_case (window_edge_prop enc)))
    Encoding.all
  @ [
      Alcotest.test_case "read_i32s narrows sub-32-bit words across a cut"
        `Quick (fun () ->
          (* the words of the sign-extension fix: a high half that is
             not the element's extension still narrows to the low bits *)
          List.iter
            (fun be ->
              let wire =
                let buf = Mbuf.create 8 in
                List.iter (Mbuf.put_i32 buf ~be) [ 0x00000007; 0xff01fffd ];
                Mbuf.contents buf
              in
              List.iter
                (fun (bits, signed, expect) ->
                  List.iter
                    (fun (how, r) ->
                      let got = Codec.read_i32s ~be ~signed ~bits r 2 in
                      Alcotest.(check (array int))
                        (Printf.sprintf "%s %d-bit %s, %s" (if be then "BE" else "LE")
                           bits (if signed then "signed" else "unsigned") how)
                        expect got;
                      Alcotest.(check int) "whole run consumed" 0 (Mbuf.remaining r))
                    [
                      ("contiguous", Mbuf.reader_of_bytes wire);
                      ("cut inside the second word", segmented wire [ 5 ]);
                      ("cut at every byte", segmented wire [ 1; 2; 3; 4; 5; 6; 7 ]);
                    ])
                [
                  (16, true, [| 7; -3 |]);
                  (16, false, [| 7; 0xfffd |]);
                  (8, true, [| 7; -3 |]);
                  (8, false, [| 7; 0xfd |]);
                  (32, false, [| 7; 0xff01fffd |]);
                  (32, true, [| 7; 0xff01fffd - 0x1_0000_0000 |]);
                ])
            [ true; false ]);
      Alcotest.test_case "non-minimal head: the run rejects it as one read does"
        `Quick (fun () ->
          let mint = Mint.create () in
          let idx =
            Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:None
          in
          let pres =
            Pres.Counted_seq
              { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
          in
          List.iter
            (fun (enc, head, bad, want) ->
              let vcc = Option.get enc.Encoding.var in
              let wire = Bytes.of_string (head ^ "\x01" ^ bad ^ "\x03") in
              let d =
                Stub_opt.compile_decoder ~enc ~mint ~named:[]
                  [ Stub_opt.Dvalue (idx, pres) ]
              in
              let one =
                match
                  Encoding.var_get_int vcc (Encoding.Kint { bits = 32; signed = true })
                    (Mbuf.reader_of_bytes (Bytes.of_string bad))
                with
                | _ -> "accepted"
                | exception Codec.Decode_error m -> m
              in
              Alcotest.(check string) (enc.Encoding.name ^ ": one read") want one;
              List.iter
                (fun (how, r) ->
                  match d r with
                  | _ -> Alcotest.failf "%s %s: accepted a non-minimal head" enc.Encoding.name how
                  | exception Codec.Decode_error m ->
                      Alcotest.(check string) (enc.Encoding.name ^ ": " ^ how) want m)
                [
                  ("in the window", Mbuf.reader_of_bytes wire);
                  ("cut inside the head", segmented wire [ String.length head + 2 ]);
                ])
            [
              (Encoding.msgpack, "\x93", "\xcc\x05", "msgpack: non-minimal uint8");
              (Encoding.cbor, "\x83", "\x18\x05", "cbor: non-minimal argument in head 0x18");
            ]);
    ]

(* -- how frames are built ------------------------------------------ *)

(* Hand-written plans reach the frame builds the compiler rarely emits:
   a top frame whose roots read out of wire order, and one lone chunk
   read in any order.  Every build must decode the same values. *)
let frame_build_test () =
  let i32 = { Mplan.kind = Encoding.Kint { bits = 32; signed = true }; size = 4; align = 4 } in
  let chunk slots =
    Dplan.D_chunk
      {
        size = 4 * List.length slots;
        items = List.mapi (fun k slot -> Dplan.Dit_atom { off = 4 * k; atom = i32; slot }) slots;
        check = true;
      }
  in
  let wire =
    let buf = Mbuf.create 16 in
    List.iter (Mbuf.put_i32 buf ~be:true) [ 10; 20; 30 ];
    Mbuf.contents buf
  in
  List.iter
    (fun (what, ops, shapes, build, expect) ->
      let plan = { Dplan.d_nslots = 3; d_ops = ops; d_shapes = shapes; d_subs = [] } in
      Alcotest.(check string) (what ^ ": build") build
        (Dplan.build_name (Dplan.plan_build plan));
      let d = Stub_opt.decoder_of_dplan ~enc:Encoding.xdr plan in
      let got = d (Mbuf.reader_of_bytes wire) in
      Alcotest.(check bool) (what ^ ": values") true
        (Array.length got = Array.length expect
        && Array.for_all2 Value.equal got expect);
      match d (Mbuf.reader_of_bytes ~len:10 wire) with
      | _ -> Alcotest.failf "%s: decoded a truncated message" what
      | exception Mbuf.Short_buffer -> ())
    [
      ( "roots in wire order",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_slot 0; Dplan.Sh_struct [ Dplan.Sh_slot 1; Dplan.Sh_slot 2 ] ],
        "in order",
        [| Value.Vint 10; Value.Vstruct [| Value.Vint 20; Value.Vint 30 |] |] );
      ( "one chunk read out of order",
        [ chunk [ 0; 1; 2 ] ],
        [ Dplan.Sh_slot 2; Dplan.Sh_struct [ Dplan.Sh_slot 0; Dplan.Sh_slot 1 ] ],
        "direct chunk",
        [| Value.Vint 30; Value.Vstruct [| Value.Vint 10; Value.Vint 20 |] |] );
      ( "interleaved roots",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_struct [ Dplan.Sh_slot 0; Dplan.Sh_slot 2 ]; Dplan.Sh_slot 1 ],
        "slot frame: shape reads slots out of wire order",
        [| Value.Vstruct [| Value.Vint 10; Value.Vint 30 |]; Value.Vint 20 |] );
      ( "a slot read twice",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_slot 0; Dplan.Sh_slot 0; Dplan.Sh_slot 2 ],
        "slot frame: slots filled and read differ",
        [| Value.Vint 10; Value.Vint 10; Value.Vint 30 |] );
    ]

(* -- hostile counts ------------------------------------------------- *)

(* A count word that promises millions of directory entries in a body
   of one: every loop checks the count against the bytes that remain,
   at its static minimum per element, before allocating, so the decode
   fails with a typed error having allocated almost nothing. *)
let hostile_count_test () =
  let hostile = 4_194_304 in
  let entry =
    Value.Vstruct
      [|
        Value.Vstring "abcdefgh";
        Value.Vstruct
          [| Value.Vint_array (Array.make 30 7); Value.Vbytes (Bytes.make 16 'x') |];
      |]
  in
  List.iter
    (fun (enc, style) ->
      let pc = Paper_fixtures.bench_presc style in
      let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
      let mint = spec.Paper_fixtures.ms_mint
      and named = spec.Paper_fixtures.ms_named in
      let wire_of n =
        let e = Stub_opt.compile_encoder ~enc ~mint ~named spec.Paper_fixtures.ms_roots in
        let buf = Mbuf.create 256 in
        e buf [| Value.Varray (Array.make n entry) |];
        Bytes.to_string (Mbuf.contents buf)
      in
      (* the count is where the one- and two-entry messages first differ *)
      let one = wire_of 1 and two = wire_of 2 in
      let at =
        let rec go i = if one.[i] <> two.[i] then i else go (i + 1) in
        go 0
      in
      let wire =
        match enc.Encoding.var with
        | None ->
            let w = at land lnot 3 in
            let b = Bytes.of_string one in
            if enc.Encoding.big_endian then Bytes.set_int32_be b w (Int32.of_int hostile)
            else Bytes.set_int32_le b w (Int32.of_int hostile);
            b
        | Some vc ->
            let head =
              (match vc with Encoding.Msgpack -> "\xdd" | Encoding.Cbor -> "\x9a")
              ^ "\x00\x40\x00\x00"
            in
            Bytes.of_string
              (String.sub one 0 at ^ head
              ^ String.sub one (at + 1) (String.length one - at - 1))
      in
      let d = Stub_opt.compile_decoder ~enc ~mint ~named spec.Paper_fixtures.ms_droots in
      let a0 = Gc.allocated_bytes () in
      let typed =
        match d (Mbuf.reader_of_bytes wire) with
        | _ -> false
        | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> true
      in
      let allocated = Gc.allocated_bytes () -. a0 in
      Alcotest.(check bool) (enc.Encoding.name ^ ": typed error") true typed;
      if allocated >= 1e6 then
        Alcotest.failf "%s: %d-byte body allocated %.0f bytes before failing"
          enc.Encoding.name (Bytes.length wire) allocated)
    [
      (Encoding.xdr, `Rpcgen);
      (Encoding.cdr, `Corba);
      (Encoding.mach3, `Fluke);
      (Encoding.msgpack, `Fluke);
      (Encoding.cbor, `Fluke);
    ]

let suite =
  [
    ("decplan:differential", property_tests);
    ("decplan:window-edges", window_edge_tests);
    ( "decplan:frame-builds",
      [
        Alcotest.test_case "every frame build decodes the same values" `Quick
          frame_build_test;
      ] );
    ( "decplan:hostile-count",
      [
        Alcotest.test_case "a hostile count fails typed, allocating < 1 MB"
          `Quick hostile_count_test;
      ] );
    ("decplan:failures", failure_tests);
    ("decplan:selfdesc-arrays", selfdesc_array_tests);
    ("decplan:views", view_tests);
    ("decplan:cache", cache_tests);
  ]
