(* Tests for the kit driver, the paper fixtures, and the code-reuse
   accounting. *)

let test name f = Alcotest.test_case name `Quick f

let mail_corba = Paper_fixtures.mail_corba
let mail_onc = Paper_fixtures.mail_onc

let mig_src = "subsystem dev 10;\nroutine poke(in x : int);"

let driver_tests =
  [
    test "every free IDL x presentation x backend combination compiles"
      (fun () ->
        let cases =
          [
            (Driver.Idl_corba, mail_corba); (Driver.Idl_onc, mail_onc);
          ]
        in
        List.iter
          (fun (idl, source) ->
            List.iter
              (fun pres ->
                List.iter
                  (fun backend ->
                    let files =
                      Driver.compile idl pres backend ~file:"t" ~source
                        ~interface:None
                    in
                    Alcotest.(check int) "three files" 3 (List.length files);
                    List.iter
                      (fun (_, contents) ->
                        Alcotest.(check bool) "nonempty" true
                          (String.length contents > 100))
                      files)
                  [
                    Driver.Back_iiop; Driver.Back_oncrpc; Driver.Back_mach3;
                    Driver.Back_fluke;
                  ])
              [ Driver.Pres_corba; Driver.Pres_corba_len; Driver.Pres_rpcgen;
                Driver.Pres_fluke ])
          cases);
    test "MIG input works through the conjoined path" (fun () ->
        let files =
          Driver.compile Driver.Idl_mig Driver.Pres_mig Driver.Back_mach3
            ~file:"dev.defs" ~source:mig_src ~interface:None
        in
        Alcotest.(check int) "three files" 3 (List.length files));
    test "MIG presentation rejects other IDLs" (fun () ->
        match
          Driver.present Driver.Idl_corba Driver.Pres_mig ~file:"t"
            ~source:mail_corba ~interface:None
        with
        | _ -> Alcotest.fail "expected a diagnostic"
        | exception Diag.Error _ -> ());
    test "interface listing and selection" (fun () ->
        let source = "interface A { void f(); }; interface B { void g(); };" in
        Alcotest.(check (list string))
          "list" [ "A"; "B" ]
          (Driver.interfaces Driver.Idl_corba ~file:"t" source);
        let pc =
          Driver.present Driver.Idl_corba Driver.Pres_corba ~file:"t" ~source
            ~interface:(Some "B")
        in
        Alcotest.(check string) "selected" "B" pc.Pres_c.pc_name;
        (* ambiguous without a selection *)
        match
          Driver.present Driver.Idl_corba Driver.Pres_corba ~file:"t" ~source
            ~interface:None
        with
        | _ -> Alcotest.fail "expected a diagnostic"
        | exception Diag.Error _ -> ());
    test "name parsing round trips" (fun () ->
        List.iter
          (fun n -> Alcotest.(check bool) n true (Driver.idl_of_string n <> None))
          Driver.idl_names;
        List.iter
          (fun n ->
            Alcotest.(check bool) n true
              (Driver.presentation_of_string n <> None))
          Driver.presentation_names;
        List.iter
          (fun n ->
            Alcotest.(check bool) n true (Driver.backend_of_string n <> None))
          Driver.backend_names);
  ]

let fixture_tests =
  [
    test "bench methods round trip through all engines on all encodings"
      (fun () ->
        List.iter
          (fun style ->
            let pc = Paper_fixtures.bench_presc style in
            List.iter
              (fun payload ->
                let spec =
                  Paper_fixtures.request_spec pc
                    ~op:(Paper_fixtures.op_of_payload payload)
                in
                let value = Paper_fixtures.payload payload ~bytes:2048 in
                List.iter
                  (fun enc ->
                    let encode =
                      Stub_opt.compile_encoder ~enc
                        ~mint:spec.Paper_fixtures.ms_mint
                        ~named:spec.Paper_fixtures.ms_named
                        spec.Paper_fixtures.ms_roots
                    in
                    let decode =
                      Stub_opt.compile_decoder ~enc
                        ~mint:spec.Paper_fixtures.ms_mint
                        ~named:spec.Paper_fixtures.ms_named
                        spec.Paper_fixtures.ms_droots
                    in
                    let b = Mbuf.create 4096 in
                    encode b [| value |];
                    let out = decode (Mbuf.reader b) in
                    Alcotest.(check bool)
                      (Printf.sprintf "%s roundtrip" enc.Encoding.name)
                      true
                      (Value.equal value out.(0)))
                  Encoding.all)
              [ `Ints; `Rects; `Dirents ])
          [ `Corba; `Rpcgen ]);
    test "directory entries encode near 256 bytes each" (fun () ->
        let pc = Paper_fixtures.bench_presc `Rpcgen in
        let spec = Paper_fixtures.request_spec pc ~op:"send_dirents" in
        let one = Paper_fixtures.payload `Dirents ~bytes:256 in
        let encode =
          Stub_opt.compile_encoder ~enc:Encoding.xdr
            ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
        in
        let b = Mbuf.create 512 in
        encode b [| one |];
        let per_entry = Mbuf.pos b - 8 (* proc key + count *) in
        Alcotest.(check bool)
          (Printf.sprintf "%d in [240, 272]" per_entry)
          true
          (per_entry >= 240 && per_entry <= 272));
  ]

let reuse_tests =
  [
    test "code accounting finds all phases and components" (fun () ->
        let phases = Reuse.table1 () in
        Alcotest.(check (list string))
          "phases"
          [ "Front End"; "Pres. Gen."; "Back End" ]
          (List.map (fun p -> p.Reuse.phase_name) phases);
        List.iter
          (fun p ->
            Alcotest.(check bool) "base library is substantial" true
              (p.Reuse.base_lines > 300);
            List.iter
              (fun r ->
                Alcotest.(check bool)
                  (r.Reuse.component ^ " counted") true (r.Reuse.lines > 5);
                (* the paper's structural claim: components are small
                   fractions of their base libraries *)
                Alcotest.(check bool)
                  (r.Reuse.component ^ " below 50%")
                  true (r.Reuse.percent < 50.))
              p.Reuse.rows)
          phases);
    test "substantive counter ignores comments and blanks" (fun () ->
        let path = Filename.temp_file "reuse" ".ml" in
        let oc = open_out path in
        output_string oc
          "(* a comment *)\n\nlet x = 1\n(* multi\n   line *)\nlet y = \"(* not a comment *)\"\n";
        close_out oc;
        let n = Reuse.substantive_lines path in
        Sys.remove path;
        Alcotest.(check int) "two code lines" 2 n);
  ]

(* -- dump-plan: the CLI's plan and pass-trace rendering --------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let occurrences hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else go (i + 1) (if String.sub hay i nn = needle then acc + 1 else acc)
  in
  if nn = 0 then 0 else go 0 0

(* Rendered under the injected fake clock, every wall time in a pass
   trace is a deterministic step count (two readings bracket each
   transform: exactly 1000ns = 1.0us per pass), so the golden below
   pins timing columns byte-for-byte — no real nanosecond ever lands in
   a golden. *)
let render ~op ?config mode =
  Obs.with_clock (Obs.fake_clock ()) (fun () ->
      Plan_dump.render ~idl:Driver.Idl_corba ~pres:Driver.Pres_rpcgen
        ~backend:Driver.Back_oncrpc ~interface:None ~op ~mode ?config
        ~file:"bench.idl" ~source:Paper_fixtures.bench_idl ())

let read_golden name =
  let path = Filename.concat "goldens" name in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Golden regeneration aid (DESIGN.md §8): FLICK_REGEN_GOLDENS names the
   golden file to rewrite, and the test that owns a golden of that name
   writes its fresh output there. *)
let regen_golden name contents =
  match Sys.getenv_opt "FLICK_REGEN_GOLDENS" with
  | Some path when Filename.basename path = name ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc
  | _ -> ()

let dump_tests =
  [
    test "dump-plan renders one marshal plan per stub" (fun () ->
        let out = render ~op:None Plan_dump.Marshal in
        Alcotest.(check int) "three stubs" 3
          (occurrences out "=== marshal plan:"));
    test "dump-plan --decode renders the unmarshal plan" (fun () ->
        let out = render ~op:(Some "send_dirents") Plan_dump.Unmarshal in
        Alcotest.(check int) "one stub" 1
          (occurrences out "=== unmarshal plan:");
        Alcotest.(check int) "others filtered out" 0
          (occurrences out "send_ints"));
    test "dump-plan --decode says how every Bench frame is built" (fun () ->
        (* every frame of the three operations decodes straight to its
           value, in all five encodings: no slot frames, and the rects
           loop is one run of integer rows *)
        List.iter
          (fun enc ->
            let out =
              Plan_dump.render ~idl:Driver.Idl_corba ~pres:Driver.Pres_rpcgen
                ~backend:Driver.Back_oncrpc ~interface:None ~op:None
                ~mode:Plan_dump.Unmarshal ~encoding:enc ~file:"bench.idl"
                ~source:Paper_fixtures.bench_idl ()
            in
            let frames =
              List.filter
                (fun l -> String.length l > 6 && String.sub l 0 6 = "frame ")
                (String.split_on_char '\n' out)
            in
            let rects_loop =
              if enc == Encoding.mach3 then "int rows ×4 int32, stride 32"
              else "int rows ×4 int32"
            in
            Alcotest.(check (list string))
              (enc.Encoding.name ^ " frames")
              [
                "frame top: in order";
                "frame top: in order";
                "frame top/s0 loop: " ^ rects_loop;
                "frame top: in order";
                "frame top/s0 loop: in order";
              ]
              frames)
          Encoding.[ xdr; cdr; mach3; msgpack; cbor ]);
    test "dump-plan --trace-passes matches golden (send_dirents, oncrpc)"
      (fun () ->
        let out =
          render ~op:(Some "send_dirents") ~config:Opt_config.all
            Plan_dump.Trace
        in
        (* the output is deterministic under the fake clock, so
           dumping it *is* the new golden *)
        regen_golden "dump_trace_dirents_oncrpc.golden" out;
        Alcotest.(check string) "dump_trace_dirents_oncrpc.golden"
          (String.trim (read_golden "dump_trace_dirents_oncrpc.golden"))
          (String.trim out));
    test "dump-plan --trace-passes marks every pass verified" (fun () ->
        (* Trace mode forces the verifier on, whatever the config says *)
        let out =
          render ~op:(Some "send_rects") ~config:Opt_config.all
            Plan_dump.Trace
        in
        let n_passes =
          List.length Pass.encode_pass_names
          + List.length Pass.decode_pass_names
        in
        (* each side is traced twice: chunked and per-datum *)
        Alcotest.(check int) "one verified mark per pass and mode"
          (2 * n_passes)
          (occurrences out "verified");
        Alcotest.(check bool) "encode side traced" true
          (contains out "encode (chunked):");
        Alcotest.(check bool) "decode side traced" true
          (contains out "decode (per-datum):"));
    test "dump-plan --forward annotates ops with copy-elision provenance"
      (fun () ->
        (* oncrpc -> oncrpc: the dirents relay is pure copy propagation,
           so nothing may materialize and the string payloads borrow or
           blit *)
        let out =
          render ~op:(Some "send_dirents")
            (Plan_dump.Forward Driver.Back_oncrpc)
        in
        Alcotest.(check int) "one stub" 1
          (occurrences out "=== forward plan:");
        Alcotest.(check bool) "names both transports" true
          (contains out "(oncrpc -> oncrpc)");
        Alcotest.(check bool) "per-op provenance rendered" true
          (contains out "# blit" || contains out "# borrow");
        Alcotest.(check bool) "same-encoding relay never materializes" true
          (not (contains out "# fallback"));
        Alcotest.(check bool) "elision rollup present" true
          (contains out "elision: "));
    test "dump-plan --forward cross-encoding converts scalars in place"
      (fun () ->
        let out =
          render ~op:(Some "send_ints") (Plan_dump.Forward Driver.Back_fluke)
        in
        Alcotest.(check bool) "names both transports" true
          (contains out "(oncrpc -> fluke)");
        (* BE -> LE integers: the array relays as convert, not blit *)
        Alcotest.(check bool) "scalar conversion surfaces" true
          (contains out "# convert");
        Alcotest.(check bool) "no materialize fallback" true
          (not (contains out "# fallback")));
    test "dump-plan with an unknown --op is a diagnostic, not a crash"
      (fun () ->
        match render ~op:(Some "nosuch") Plan_dump.Marshal with
        | _ -> Alcotest.fail "expected a diagnostic"
        | exception Diag.Error d ->
            let msg = Diag.to_string d in
            Alcotest.(check bool) "names the missing op" true
              (contains msg "nosuch");
            Alcotest.(check bool) "lists the operations that exist" true
              (contains msg "send_ints"));
    test "dump-plan with an unknown pass name is a diagnostic" (fun () ->
        match
          render ~op:None ~config:(Opt_config.only [ "bogus" ])
            Plan_dump.Marshal
        with
        | _ -> Alcotest.fail "expected a diagnostic"
        | exception Diag.Error d ->
            Alcotest.(check bool) "names the bad pass" true
              (contains (Diag.to_string d) "bogus"));
    test "dump-plan names how every Bench encode loop is stored" (fun () ->
        (* the rects loop is one rows kernel call in all five encodings,
           the 32-byte mach3 rect with its descriptor words between the
           leaves; a dirent is not a row *)
        List.iter
          (fun enc ->
            let out =
              Plan_dump.render ~idl:Driver.Idl_corba ~pres:Driver.Pres_rpcgen
                ~backend:Driver.Back_oncrpc ~interface:None ~op:None
                ~mode:Plan_dump.Marshal ~encoding:enc ~file:"bench.idl"
                ~source:Paper_fixtures.bench_idl ()
            in
            let loops =
              List.filter
                (fun l -> String.length l > 5 && String.sub l 0 5 = "loop ")
                (String.split_on_char '\n' out)
            in
            Alcotest.(check (list string))
              (enc.Encoding.name ^ " loops")
              [
                ("loop _e0 in *data: int rows ×4 int32"
                ^ if enc == Encoding.mach3 then ", stride 32" else "");
                "loop _e0 in *data: per element";
              ]
              loops)
          Encoding.[ xdr; cdr; mach3; msgpack; cbor ]);
  ]

(* -- the emitted C, byte for byte --------------------------------------- *)

(* The MD5 of every file Driver.compile emits for the paper's fixture
   IDLs under each (presentation, back end) pair that can present them,
   one line per file: a change anywhere in the generators or the printer
   that moves one byte of C shows up as a one-line diff.  dir.idl raises
   an exception, which only the CORBA presentations can express. *)
let emitted_pairs =
  Driver.
    [
      ("corba-c/iiop", Pres_corba, Back_iiop);
      ("corba-len-c/iiop", Pres_corba_len, Back_iiop);
      ("rpcgen-c/oncrpc", Pres_rpcgen, Back_oncrpc);
      ("fluke-c/fluke", Pres_fluke, Back_fluke);
      ("corba-c/mach3", Pres_corba, Back_mach3);
    ]

let emitted_fixtures =
  Paper_fixtures.
    [
      ("mail.idl", Driver.Idl_corba, mail_corba, false);
      ("mail.x", Driver.Idl_onc, mail_onc, false);
      ("bench.idl", Driver.Idl_corba, bench_idl, false);
      ("dir.idl", Driver.Idl_corba, dir_idl, true);
      ("dir_noexc.idl", Driver.Idl_corba, dir_idl_noexc, false);
    ]

let emitted_digests () =
  List.concat_map
    (fun (file, idl, source, raises) ->
      List.concat_map
        (fun (pair, pres, backend) ->
          if raises && pres <> Driver.Pres_corba && pres <> Driver.Pres_corba_len
          then []
          else
            List.map
              (fun (name, contents) ->
                Printf.sprintf "%s %s %s %s\n" pair file name
                  (Digest.to_hex (Digest.string contents)))
              (Driver.compile idl pres backend ~file ~source ~interface:None))
        emitted_pairs)
    emitted_fixtures
  |> String.concat ""

let emitted_tests =
  [
    test "every emitted C file matches its golden digest" (fun () ->
        let out = emitted_digests () in
        regen_golden "emitted_c.golden" out;
        Alcotest.(check string) "emitted_c.golden"
          (String.trim (read_golden "emitted_c.golden"))
          (String.trim out));
  ]

let suite =
  [
    ("driver:matrix", driver_tests);
    ("driver:fixtures", fixture_tests);
    ("driver:dump-plan", dump_tests);
    ("driver:emitted-c", emitted_tests);
    ("driver:reuse", reuse_tests);
  ]
