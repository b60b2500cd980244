(* Compiled plans and the compiled-plan cache.

   - goldens pin the compiler's per-datum and chunked plans for the
     paper's Mail and directory requests as reviewable diffs;
   - differential qcheck properties prove the chunked plan, the
     per-datum plan, the cached engine encoder and the naive engine
     write the same bytes on >= 1000 random (type, value) cases per
     paper encoding;
   - the plan, encoder and decoder caches reuse, separate and count
     their entries;
   - structural tests pin each section-3 rewrite on the plan of a
     hand-built type, in the compiler that owns it (chunk merging,
     scalar-array blits, loop reservations, constant msgpack/CBOR heads,
     relay run merging);
   - normal-form properties check that no compiled plan of a random
     type leaves two chunks, two alignments or two relay runs to merge,
     or a fixed decode loop body checking each run. *)

let test name f = Alcotest.test_case name `Quick f
let rv0 name = Mplan.Rparam { index = 0; name; deref = false }
let pp_ops ops = Format.asprintf "%a" Mplan.pp ops

(* -- goldens: the compiler's decisions as reviewable diffs ------------ *)

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
    test "golden: per-datum Mail request plan (mach3)" (fun () ->
        let plan = mail_request_plan ~enc:Encoding.mach3 ~chunked:false in
        Test_goldens.golden "mail_mach3_per_datum.golden" (pp_ops plan.Plan_compile.p_ops));
    test "golden: Mail request plan under CDR" (fun () ->
        let plan = mail_request_plan ~enc:Encoding.cdr ~chunked:true in
        Test_goldens.golden "mail_cdr.golden" (pp_ops plan.Plan_compile.p_ops));
    test "golden: per-datum directory plan (xdr)" (fun () ->
        let plan = dirents_request_plan ~enc:Encoding.xdr ~chunked:false in
        Test_goldens.golden "dirents_xdr_per_datum.golden" (pp_ops plan.Plan_compile.p_ops));
  ]

(* -- differential properties ------------------------------------------ *)

let rng = Random.State.make [| 0xbeef |]

let encode_plan ~enc plan v =
  let encoder = Stub_opt.encoder_of_plan ~enc plan in
  let buf = Mbuf.create 64 in
  encoder buf [| v |];
  Bytes.to_string (Mbuf.contents buf)

(* For one random (type, value): the compiled plan, the per-datum plan,
   the cached engine encoder, and the naive engine must all produce
   identical bytes. *)
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
      ("per-datum", encode_plan ~enc per_datum v);
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
        (Printf.sprintf "%s: compiled plans + cache byte-identical (%d cases)" n count)
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

(* -- structural: each section-3 rewrite, in its compiler --------------- *)

let p0 = rv0 "p"
let value_root idx pres = [ Plan_compile.Rvalue (p0, idx, pres) ]
let eplan ?chunked ~enc mint roots = Plan_compile.compile ~enc ~mint ~named:[] ?chunked roots
let dplan ?chunked ~enc mint droots = Dplan_compile.compile ~enc ~mint ~named:[] ?chunked droots
let pp_dops ops = Format.asprintf "%a" Dplan.pp ops
let u32 = Encoding.Kint { bits = 32; signed = false }

(* struct { long f0; ...; long f(n-1); } *)
let longs m n =
  let names = List.init n (Printf.sprintf "f%d") in
  ( Mint.struct_ m (List.map (fun f -> (f, Mint.int32 m)) names),
    Pres.Struct (List.map (fun f -> (f, Pres.Direct)) names) )

let struct_of m fields =
  ( Mint.struct_ m (List.map (fun (f, (idx, _)) -> (f, idx)) fields),
    Pres.Struct (List.map (fun (f, (_, pres)) -> (f, pres)) fields) )

let seq_of m (elem, ep) =
  ( Mint.array m ~elem ~min_len:0 ~max_len:None,
    Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = ep } )

let str m = (Mint.string_ m ~max_len:None, Pres.Terminated_string)
let long m = (Mint.int32 m, Pres.Direct)
let double m = (Mint.float_ m ~bits:64, Pres.Direct)

(* sequence<struct { string s; long x; }> *)
let string_long_seq m = seq_of m (struct_of m [ ("s", str m); ("x", long m) ])

(* union switch (long) { case 5: double d; } *)
let double_arm_union m =
  ( Mint.union m ~discrim:(Mint.int32 m)
      ~cases:[ { Mint.c_const = Mint.Cint 5L; c_body = Mint.float_ m ~bits:64 } ]
      ~default:None,
    Pres.Union
      { discrim_field = "_d"; union_field = "_u"; arms = [ ("d", Pres.Direct) ];
        default_arm = None } )

let offsets items =
  List.map
    (fun (it : Mplan.item) ->
      match it with
      | Mplan.It_atom { off; _ } | Mplan.It_const { off; _ } | Mplan.It_bytes { off; _ } -> off)
    items

(* the image bytes a chunk's leading constant items store *)
let const_prefix items =
  let rec go acc = function
    | Mplan.It_const { atom = { Mplan.size = 1; _ }; value; _ } :: rest ->
        go (Char.chr (Int64.to_int value) :: acc) rest
    | _ -> String.of_seq (List.to_seq (List.rev acc))
  in
  go [] items

let rec has_checked_dchunk ops =
  List.exists
    (fun (op : Dplan.dop) ->
      match op with
      | Dplan.D_chunk { check; _ } -> check
      | Dplan.D_loop { frame; _ } -> has_checked_dchunk frame.Dplan.f_ops
      | _ -> false)
    ops

let pp_fops ops = Format.asprintf "%a" Fplan.pp ops

let structural_tests =
  [
    test "a struct's fixed fields share one chunk: offsets shift, one check" (fun () ->
        let m = Mint.create () in
        let idx, pres = longs m 3 in
        match (eplan ~enc:Encoding.cdr m (value_root idx pres)).Plan_compile.p_ops with
        | [ Mplan.Chunk { size = 12; items; check = true; _ } ] ->
            Alcotest.(check (list int)) "offsets" [ 0; 4; 8 ] (offsets items)
        | ops -> Alcotest.failf "expected one checked 12-byte chunk, got:@.%s" (pp_ops ops));
    test "nested struct boundaries do not split the chunk" (fun () ->
        let m = Mint.create () in
        let idx, pres = struct_of m (List.init 5 (fun i -> (Printf.sprintf "s%d" i, longs m 2))) in
        match (eplan ~enc:Encoding.xdr m (value_root idx pres)).Plan_compile.p_ops with
        | [ Mplan.Chunk { size = 40; items; check = true; _ } ] ->
            Alcotest.(check (list int)) "offsets" (List.init 10 (fun i -> 4 * i)) (offsets items)
        | ops -> Alcotest.failf "expected one 40-byte chunk, got:@.%s" (pp_ops ops));
    test "a sequence of scalars is one Put_atom_array, not a loop" (fun () ->
        let m = Mint.create () in
        let idx, pres = seq_of m (Mint.int32 m, Pres.Direct) in
        match (eplan ~enc:Encoding.xdr m (value_root idx pres)).Plan_compile.p_ops with
        | [ Mplan.Put_atom_array { with_len = true; atom = { Mplan.size = 4; _ }; _ } ] -> ()
        | ops -> Alcotest.failf "expected one counted atom array, got:@.%s" (pp_ops ops));
    test "an optional scalar stays a loop (Put_atom_array cannot walk optionals)" (fun () ->
        let m = Mint.create () in
        let idx = Mint.array m ~elem:(Mint.int32 m) ~min_len:0 ~max_len:(Some 1) in
        let roots = value_root idx (Pres.Opt_ptr Pres.Direct) in
        match (eplan ~enc:Encoding.xdr m roots).Plan_compile.p_ops with
        | [
         Mplan.Put_len _;
         Mplan.Ensure_count { unit_size = 4; _ };
         Mplan.Loop
           { via = Mplan.Via_opt; body = [ Mplan.Chunk { size = 4; check = false; _ } ]; _ };
        ] ->
            ()
        | ops -> Alcotest.failf "expected a reserved optional loop, got:@.%s" (pp_ops ops));
    test "a bounded loop body gets one reservation and unchecked chunks" (fun () ->
        let m = Mint.create () in
        let elem =
          struct_of m
            [ ("x", long m); ("c", (Mint.char8 m, Pres.Direct));
              ("h", (Mint.int_ m ~bits:16 ~signed:true, Pres.Direct)) ]
        in
        let idx, pres = seq_of m elem in
        match (eplan ~enc:Encoding.xdr m (value_root idx pres)).Plan_compile.p_ops with
        | [
         Mplan.Put_len _;
         Mplan.Ensure_count { unit_size = 12; _ };
         Mplan.Loop { body = [ Mplan.Chunk { size = 12; check = false; _ } ]; _ };
        ] ->
            ()
        | ops -> Alcotest.failf "expected a 12-byte reservation, got:@.%s" (pp_ops ops));
    test "a loop body with a string is not reserved and keeps its check" (fun () ->
        let m = Mint.create () in
        let idx, pres = string_long_seq m in
        match (eplan ~enc:Encoding.xdr m (value_root idx pres)).Plan_compile.p_ops with
        | [
         Mplan.Put_len _;
         Mplan.Loop { body = [ Mplan.Put_string _; Mplan.Chunk { size = 4; check = true; _ } ]; _ };
        ] ->
            ()
        | ops -> Alcotest.failf "expected an unreserved loop, got:@.%s" (pp_ops ops));
    test "a union arm's discriminator and payload share one chunk" (fun () ->
        let m = Mint.create () in
        let idx, pres = double_arm_union m in
        match (eplan ~enc:Encoding.xdr m (value_root idx pres)).Plan_compile.p_ops with
        | [
         Mplan.Switch
           {
             arms =
               [
                 {
                   Mplan.a_body =
                     [
                       Mplan.Chunk
                         {
                           size = 12;
                           items =
                             [ Mplan.It_const { off = 0; value = 5L; _ }; Mplan.It_atom { off = 4; _ } ];
                           _;
                         };
                     ];
                   _;
                 };
               ];
             _;
           };
        ] ->
            ()
        | ops -> Alcotest.failf "expected a 12-byte arm chunk, got:@.%s" (pp_ops ops));
    test "msgpack/CBOR: a constant arm head is written into the arm's chunk" (fun () ->
        List.iter
          (fun (enc, image) ->
            let m = Mint.create () in
            let idx, pres = double_arm_union m in
            match (eplan ~enc m (value_root idx pres)).Plan_compile.p_ops with
            | [
             Mplan.Switch
               { arms = [ { Mplan.a_body = [ Mplan.Chunk { size = 10; items; _ } ]; _ } ]; _ };
            ] ->
                Alcotest.(check string)
                  (enc.Encoding.name ^ " head and float tag")
                  (Test_engines.hex image)
                  (Test_engines.hex (const_prefix items))
            | ops ->
                Alcotest.failf "%s: expected a 10-byte arm chunk, got:@.%s" enc.Encoding.name
                  (pp_ops ops))
          [ (Encoding.msgpack, "\x05\xcb"); (Encoding.cbor, "\x05\xfb") ]);
    test "msgpack/CBOR decode: a constant key is compared as image bytes in one chunk"
      (fun () ->
        List.iter
          (fun (enc, image) ->
            let m = Mint.create () in
            let droots =
              let idx, pres = double m in
              [ Dplan_compile.Dconst_int (200L, u32); Dplan_compile.Dvalue (idx, pres) ]
            in
            match (dplan ~enc m droots).Dplan.d_ops with
            | [ Dplan.D_chunk { size = 11; items; check = true } ] ->
                let consts =
                  List.filter_map
                    (fun (it : Dplan.ditem) ->
                      match it with
                      | Dplan.Dit_const { value; _ } -> Some (Char.chr (Int64.to_int value))
                      | _ -> None)
                    items
                in
                Alcotest.(check string)
                  (enc.Encoding.name ^ " key image and float tag")
                  (Test_engines.hex image)
                  (Test_engines.hex (String.of_seq (List.to_seq consts)))
            | ops ->
                Alcotest.failf "%s: expected one 11-byte chunk, got:@.%s" enc.Encoding.name
                  (pp_dops ops))
          [ (Encoding.msgpack, "\xcc\xc8\xcb"); (Encoding.cbor, "\x18\xc8\xfb") ]);
    test "msgpack/CBOR decode: a key that is not the constant's minimal image is refused"
      (fun () ->
        List.iter
          (fun (enc, other, longer) ->
            let m = Mint.create () in
            let i32 = Mint.int32 m in
            let e =
              Stub_opt.compile_encoder ~enc ~mint:m ~named:[]
                [ Plan_compile.Rconst_int (200L, u32); Plan_compile.Rvalue (p0, i32, Pres.Direct) ]
            in
            let d =
              Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
                [ Stub_opt.Dconst_int (200L, u32); Stub_opt.Dvalue (i32, Pres.Direct) ]
            in
            let w = Mbuf.create 16 in
            e w [| Value.Vint 7 |];
            let wire = Bytes.to_string (Mbuf.contents w) in
            let decodes s =
              match d (Mbuf.reader_of_bytes (Bytes.of_string s)) with
              | [| Value.Vint 7 |] -> true
              | _ -> false
              | exception (Codec.Decode_error _ | Mbuf.Short_buffer) -> false
            in
            let name what = Printf.sprintf "%s: %s" enc.Encoding.name what in
            Alcotest.(check bool) (name "the key's image decodes") true (decodes wire);
            let rest = String.sub wire 2 (String.length wire - 2) in
            Alcotest.(check bool) (name "another key is refused") false (decodes (other ^ rest));
            Alcotest.(check bool) (name "a wider form of the key is refused") false
              (decodes (longer ^ rest)))
          [
            (Encoding.msgpack, "\xcc\xc9", "\xcd\x00\xc8");
            (Encoding.cbor, "\x18\xc9", "\x19\x00\xc8");
          ]);
    test "decode: a loop whose body takes the same bytes each time is reserved once"
      (fun () ->
        let m = Mint.create () in
        let idx, pres = seq_of m (longs m 4) in
        match (dplan ~enc:Encoding.xdr m [ Dplan_compile.Dvalue (idx, pres) ]).Dplan.d_ops with
        | [
         Dplan.D_loop
           {
             ensure = Some 16;
             frame = { Dplan.f_ops = [ Dplan.D_chunk { size = 16; check = false; _ } ]; _ };
             _;
           };
        ] ->
            ()
        | ops -> Alcotest.failf "expected a 16-byte reservation, got:@.%s" (pp_dops ops));
    test "decode: loops are not reserved when the body's advance varies or checks each load"
      (fun () ->
        let m = Mint.create () in
        let unreserved what ?chunked ~enc idx pres =
          match (dplan ?chunked ~enc m [ Dplan_compile.Dvalue (idx, pres) ]).Dplan.d_ops with
          | [ Dplan.D_loop { ensure = None; frame; _ } ] ->
              Alcotest.(check bool) (what ^ ": the body checks its own loads") true
                (has_checked_dchunk frame.Dplan.f_ops)
          | ops -> Alcotest.failf "%s: expected an unreserved loop, got:@.%s" what (pp_dops ops)
        in
        let rects, rp = seq_of m (longs m 4) in
        unreserved "per-datum" ~chunked:false ~enc:Encoding.xdr rects rp;
        let idx, pres = string_long_seq m in
        unreserved "string in the body" ~enc:Encoding.xdr idx pres;
        let idx, pres = seq_of m (struct_of m [ ("d", double m); ("x", long m) ]) in
        List.iter
          (fun enc -> unreserved (enc.Encoding.name ^ " value-dependent head") ~enc idx pres)
          [ Encoding.msgpack; Encoding.cbor ]);
    test "relay: a key and a struct's fields fuse into one run of merged moves"
      (fun () ->
        let m = Mint.create () in
        let idx, pres = longs m 3 in
        let plan =
          Fplan_compile.fuse ~src:Encoding.xdr ~dst:Encoding.xdr ~mint:m ~named:[]
            [ Dplan_compile.Dconst_int (7L, u32); Dplan_compile.Dvalue (idx, pres) ]
            [ Plan_compile.Rconst_int (7L, u32); Plan_compile.Rvalue (p0, idx, pres) ]
        in
        match plan.Fplan.f_ops with
        | [ Fplan.F_run { src_size = 16; dst_size = 16; moves; _ } ] ->
            let copies =
              List.filter_map
                (fun (mv : Fplan.fmove) ->
                  match mv with
                  | Fplan.Fm_copy { src_off; len; _ } -> Some (src_off, len)
                  | _ -> None)
                moves
            in
            Alcotest.(check (list (pair int int)))
              "one 12-byte copy after the key" [ (4, 12) ] copies
        | ops -> Alcotest.failf "expected one 16-byte run, got:@.%s" (pp_fops ops));
  ]

(* -- normal form: nothing left for a peephole pass to merge ------------ *)

(* Each op list a plan body holds: its top level and every loop,
   optional and switch-arm body inside it. *)
let rec mplan_lists (ops : Mplan.op list) =
  ops
  :: List.concat_map
       (fun (op : Mplan.op) ->
         match op with
         | Mplan.Loop { body; _ } -> mplan_lists body
         | Mplan.Switch { arms; default; _ } ->
             List.concat_map (fun (a : Mplan.arm) -> mplan_lists a.Mplan.a_body) arms
             @ (match default with Some (_, b) -> mplan_lists b | None -> [])
         | _ -> [])
       ops

let rec dplan_lists (ops : Dplan.dop list) =
  let frame (f : Dplan.frame) = dplan_lists f.Dplan.f_ops in
  ops
  :: List.concat_map
       (fun (op : Dplan.dop) ->
         match op with
         | Dplan.D_loop { frame = f; _ } | Dplan.D_opt { frame = f; _ } -> frame f
         | Dplan.D_switch { arms; default; _ } ->
             List.concat_map (fun (a : Dplan.darm) -> frame a.Dplan.d_frame) arms
             @ (match default with Some f -> frame f | None -> [])
         | _ -> [])
       ops

let rec fplan_lists (ops : Fplan.fop list) =
  ops
  :: List.concat_map
       (fun (op : Fplan.fop) ->
         match op with
         | Fplan.F_loop { body; _ } | Fplan.F_opt { body } -> fplan_lists body
         | _ -> [])
       ops

let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> []

let encode_faults ops =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun (a, b) ->
          match (a, b) with
          | Mplan.Chunk _, Mplan.Chunk _ -> Some "two adjacent chunks"
          | Mplan.Align _, Mplan.Align _ -> Some "two adjacent alignments"
          | _ -> None)
        (pairs l)
      @ List.filter_map
          (fun (op : Mplan.op) ->
            match op with
            | Mplan.Chunk { size; _ } when size <= 0 -> Some "an empty chunk"
            | Mplan.Align a when a <= 1 -> Some "a no-op alignment"
            | Mplan.Loop
                {
                  via = Mplan.Via_seq _ | Mplan.Via_fixed _;
                  var;
                  body =
                    [
                      Mplan.Chunk
                        { size; items = [ Mplan.It_atom { off = 0; atom; src = Mplan.Rvar v } ]; _ };
                    ];
                  _;
                }
              when v = var && size = atom.Mplan.size ->
                Some "a one-atom loop that one Put_atom_array would store"
            | _ -> None)
          l)
    (mplan_lists ops)

(* the bytes one run of a straight body of chunks and fixed loops takes *)
let rec straight_advance (ops : Dplan.dop list) =
  List.fold_left
    (fun acc (op : Dplan.dop) ->
      match (acc, op) with
      | Some a, Dplan.D_chunk { size; _ } -> Some (a + size)
      | Some a, Dplan.D_loop { count = Dplan.Dc_fixed n; frame; _ } ->
          Option.map (fun u -> a + (n * u)) (straight_advance frame.Dplan.f_ops)
      | _, _ -> None)
    (Some 0) ops

let decode_faults ops =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun (a, b) ->
          match (a, b) with
          | Dplan.D_chunk _, Dplan.D_chunk _ -> Some "two adjacent chunks"
          | Dplan.D_align _, Dplan.D_align _ -> Some "two adjacent alignments"
          | _ -> None)
        (pairs l)
      @ List.filter_map
          (fun (op : Dplan.dop) ->
            match op with
            | Dplan.D_chunk { size; _ } when size <= 0 -> Some "an empty chunk"
            | Dplan.D_align a when a <= 1 -> Some "a no-op alignment"
            | Dplan.D_loop { frame; _ } -> (
                match straight_advance frame.Dplan.f_ops with
                | Some u when u > 0 && has_checked_dchunk frame.Dplan.f_ops ->
                    Some (Printf.sprintf "a %d-byte loop body that checks each run" u)
                | _ -> None)
            | _ -> None)
          l)
    (dplan_lists ops)

let forward_faults ops =
  List.concat_map
    (fun l ->
      List.filter_map
        (fun (a, b) ->
          match (a, b) with Fplan.F_run _, Fplan.F_run _ -> Some "two adjacent runs" | _ -> None)
        (pairs l)
      @ List.concat_map
          (fun (op : Fplan.fop) ->
            match op with
            | Fplan.F_run { moves; _ } ->
                List.filter_map
                  (fun (a, b) ->
                    match (a, b) with
                    | Fplan.Fm_copy x, Fplan.Fm_copy y
                      when y.src_off = x.src_off + x.len && y.dst_off = x.dst_off + x.len ->
                        Some "two contiguous copies"
                    | Fplan.Fm_zero x, Fplan.Fm_zero y when y.dst_off = x.dst_off + x.len ->
                        Some "two contiguous zero fills"
                    | _ -> None)
                  (pairs moves)
            | _ -> [])
          l)
    (fplan_lists ops)

let normal_form_prop enc (c : Test_engines.case) =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let p = Plan_compile.compile ~enc ~mint ~named (Test_engines.roots_of c) in
  let d =
    Dplan_compile.compile ~enc ~mint ~named
      (List.map Stub_opt.to_dplan_droot (Test_engines.droots_of c))
  in
  let f =
    Fplan_compile.fuse ~src:enc ~dst:enc ~mint ~named
      (List.map Stub_opt.to_dplan_droot (Test_engines.droots_of c))
      (Test_engines.roots_of c)
  in
  let report side faults =
    match faults with
    | [] -> ()
    | fault :: _ ->
        QCheck.Test.fail_reportf "%s plan of %s holds %s" side c.Test_engines.label fault
  in
  report "encode"
    (List.concat_map encode_faults (p.Plan_compile.p_ops :: List.map snd p.Plan_compile.p_subs));
  report "decode"
    (List.concat_map decode_faults
       (d.Dplan.d_ops :: List.map (fun (_, fr) -> fr.Dplan.f_ops) d.Dplan.d_subs));
  report "relay" (forward_faults f.Fplan.f_ops);
  true

let normal_form_tests =
  List.map
    (fun enc ->
      qtest ~count:300
        (Printf.sprintf "%s: compiled plans leave nothing to merge (300 cases)" enc.Encoding.name)
        (normal_form_prop enc))
    Encoding.all

let suite =
  [
    ("compiled:goldens", golden_tests);
    ("compiled:differential", differential_tests);
    ("compiled:cache", cache_tests);
    ("compiled:structural", structural_tests);
    ("compiled:normal-form", normal_form_tests);
  ]
