(* The structural plan verifier, on the plans the compilers produce.

   Two pins:
   1. every compiled plan verifies: the paper's Bench requests keep
      their pinned (nodes, checks) per encoding and side, and >= 500
      random cases per paper encoding compile to encode and decode
      plans, chunked and per-datum, that the verifier accepts;
   2. the verifier rejects seeded corruptions (dropped reservations,
      non-monotone chunk items, out-of-scope loop variables, undefined
      subroutines, bad decode hoists, slot misuse) with the expected
      diagnostics, and [Plan_verify.checked] raises on them under
      FLICK_VERIFY_PLANS. *)

let test name f = Alcotest.test_case name `Quick f

(* -- 1. compiled plans verify ----------------------------------------- *)

let clean what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what (Plan_verify.error_to_string e)

let totals ops subs count = count ops + List.fold_left (fun acc sub -> acc + count sub) 0 subs

(* (nodes, checks) of each chunked Bench request plan, subroutines
   included, per (encoding, operation, side).  A change here is a change
   in what the compilers emit: understand it before updating a pin. *)
let bench_pins =
  [
    (("xdr", "send_ints", "encode"), (3, 2));
    (("xdr", "send_ints", "decode"), (3, 3));
    (("xdr", "send_rects", "encode"), (10, 3));
    (("xdr", "send_rects", "decode"), (8, 3));
    (("xdr", "send_dirents", "encode"), (37, 4));
    (("xdr", "send_dirents", "decode"), (7, 6));
    (("cdr", "send_ints", "encode"), (2, 2));
    (("cdr", "send_ints", "decode"), (2, 4));
    (("cdr", "send_rects", "encode"), (10, 3));
    (("cdr", "send_rects", "decode"), (8, 4));
    (("cdr", "send_dirents", "encode"), (38, 4));
    (("cdr", "send_dirents", "decode"), (7, 7));
    (("mach3", "send_ints", "encode"), (5, 2));
    (("mach3", "send_ints", "decode"), (3, 3));
    (("mach3", "send_rects", "encode"), (17, 3));
    (("mach3", "send_rects", "decode"), (9, 3));
    (("mach3", "send_dirents", "encode"), (44, 5));
    (("mach3", "send_dirents", "decode"), (10, 8));
  ]

let fixture_tests =
  [
    test "the Bench request plans verify and keep their node and check counts"
      (fun () ->
        List.iter
          (fun (ename, enc, style) ->
            let pc = Paper_fixtures.bench_presc style in
            List.iter
              (fun op ->
                let spec = Paper_fixtures.request_spec pc ~op in
                let mint = spec.Paper_fixtures.ms_mint
                and named = spec.Paper_fixtures.ms_named in
                let p = Plan_compile.compile ~enc ~mint ~named spec.Paper_fixtures.ms_roots in
                let d =
                  Dplan_compile.compile ~enc ~mint ~named
                    (List.map Stub_opt.to_dplan_droot spec.Paper_fixtures.ms_droots)
                in
                let cell side = Printf.sprintf "%s/%s/%s" ename op side in
                clean (cell "encode") (Plan_verify.check_plan p);
                clean (cell "decode") (Plan_verify.check_dplan d);
                let esubs = List.map snd p.Plan_compile.p_subs
                and dsubs = List.map (fun (_, f) -> f.Dplan.f_ops) d.Dplan.d_subs in
                let pin side got =
                  Alcotest.(check (pair int int)) (cell side)
                    (List.assoc (ename, op, side) bench_pins)
                    got
                in
                pin "encode"
                  ( totals p.Plan_compile.p_ops esubs Mplan.count_ops,
                    totals p.Plan_compile.p_ops esubs Mplan.count_checks );
                pin "decode"
                  ( totals d.Dplan.d_ops dsubs Dplan.count_ops,
                    totals d.Dplan.d_ops dsubs Dplan.count_checks ))
              [ "send_ints"; "send_rects"; "send_dirents" ])
          [
            ("xdr", Encoding.xdr, `Rpcgen);
            ("cdr", Encoding.cdr, `Corba);
            ("mach3", Encoding.mach3, `Fluke);
          ]);
  ]

(* -- random plans ----------------------------------------------------- *)

let rng = Random.State.make [| 0x9a55 |]

let verified_prop enc (c : Test_engines.case) =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let reject what e =
    QCheck.Test.fail_reportf "%s plan rejected on %s: %s" what c.Test_engines.label
      (Plan_verify.error_to_string e)
  in
  List.iter
    (fun chunked ->
      let side = if chunked then "chunked" else "per-datum" in
      (match
         Plan_verify.check_plan
           (Plan_compile.compile ~enc ~mint ~named ~chunked (Test_engines.roots_of c))
       with
      | Ok () -> ()
      | Error e -> reject (side ^ " encode") e);
      match
        Plan_verify.check_dplan
          (Dplan_compile.compile ~enc ~mint ~named ~chunked
             [ Dplan_compile.Dvalue (c.Test_engines.idx, c.Test_engines.pres) ])
      with
      | Ok () -> ()
      | Error e -> reject (side ^ " decode") e)
    [ true; false ];
  true

let property_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:500
           ~name:(Printf.sprintf "%s: 500 random compiled plans verify" enc.Encoding.name)
           Test_engines.arbitrary_case (verified_prop enc)))
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
      if not (Test_driver.contains msg needle) then
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

(* Run [f] with FLICK_VERIFY_PLANS set to [v], then put back what the
   suite runs under. *)
let with_verify_env v f =
  let old = Option.value (Sys.getenv_opt "FLICK_VERIFY_PLANS") ~default:"" in
  Unix.putenv "FLICK_VERIFY_PLANS" v;
  Fun.protect ~finally:(fun () -> Unix.putenv "FLICK_VERIFY_PLANS" old) f

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
    test "checked raises Rejected on a corrupt plan under FLICK_VERIFY_PLANS"
      (fun () ->
        let bad = eplan [ Mplan.Call ("node_17", p0) ] in
        let checked () = Plan_verify.checked ~side:"encode" Plan_verify.check_plan bad in
        with_verify_env "0" (fun () ->
            Alcotest.(check bool) "passed through when off" true (checked () == bad));
        with_verify_env "1" (fun () ->
            match checked () with
            | _ -> Alcotest.fail "expected Rejected"
            | exception Plan_verify.Rejected { side; error } ->
                Alcotest.(check string) "side" "encode" side;
                Alcotest.(check bool)
                  "diagnostic names the subroutine" true
                  (Test_driver.contains
                     (Plan_verify.error_to_string error)
                     "undefined marshal subroutine")));
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
    ("verify:fixtures", fixture_tests);
    ("verify:properties", property_tests);
    ("verify:negative", negative_tests);
    ("verify:reservation", reservation_tests);
  ]
