(* The central correctness properties of the reproduction:

   1. the optimized, rpcgen-style, and interpretive engines produce
      byte-identical messages for every type and value (so the
      benchmarks compare work-per-byte, never different formats);
   2. decode . encode = identity for every engine pair, and the
      per-datum and chunked decode plans read the same messages and
      refuse the same prefixes;
   3. storage analysis: every encoding of a value takes at least
      [Plan_compile.size]'s [min] bytes and, when its [max] is Some n,
      at most n;
   4. the optimized encoder writes the same bytes into a dirty, reused
      writer behind a frame header as into a fresh one.

   Types, presentations, and values are generated randomly; the chunk
   tests at the end pin each kind of chunk store on hand-built types. *)

module G = QCheck.Gen

type case = {
  label : string;
  mint : Mint.t;
  named : (string * (Mint.idx * Pres.t)) list;
  idx : Mint.idx;
  pres : Pres.t;
}

(* -- random (MINT, PRES) pairs -------------------------------------- *)

let gen_case : case G.t =
 fun st ->
  let mint = Mint.create () in
  let buf = Buffer.create 64 in
  let rec gen depth : Mint.idx * Pres.t =
    let leaf () =
      match Random.State.int st 8 with
      | 0 ->
          Buffer.add_string buf "b";
          (Mint.bool_ mint, Pres.Direct)
      | 1 ->
          Buffer.add_string buf "c";
          (Mint.char8 mint, Pres.Direct)
      | 2 ->
          Buffer.add_string buf "i16";
          (Mint.int_ mint ~bits:16 ~signed:true, Pres.Direct)
      | 3 ->
          Buffer.add_string buf "u32";
          (Mint.int_ mint ~bits:32 ~signed:false, Pres.Direct)
      | 4 ->
          Buffer.add_string buf "i64";
          (Mint.int_ mint ~bits:64 ~signed:true, Pres.Direct)
      | 5 ->
          Buffer.add_string buf "f64";
          (Mint.float_ mint ~bits:64, Pres.Direct)
      | 6 ->
          Buffer.add_string buf "s";
          (Mint.string_ mint ~max_len:(Some 16), Pres.Terminated_string)
      | _ ->
          Buffer.add_string buf "i32";
          (Mint.int32 mint, Pres.Direct)
    in
    if depth >= 3 then leaf ()
    else
      match Random.State.int st 12 with
      | 0 | 1 | 2 | 3 -> leaf ()
      | 4 ->
          (* fixed array *)
          let n = 1 + Random.State.int st 5 in
          Buffer.add_string buf (Printf.sprintf "[%d]" n);
          let e, ep = gen (depth + 1) in
          (Mint.fixed_array mint ~elem:e ~len:n, Pres.Fixed_array ep)
      | 5 | 6 ->
          (* counted sequence *)
          Buffer.add_string buf "seq";
          let e, ep = gen (depth + 1) in
          ( Mint.array mint ~elem:e ~min_len:0 ~max_len:(Some 8),
            Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = ep } )
      | 7 ->
          Buffer.add_string buf "opt";
          let e, ep = gen (depth + 1) in
          (Mint.array mint ~elem:e ~min_len:0 ~max_len:(Some 1), Pres.Opt_ptr ep)
      | 8 | 9 | 10 ->
          let n = 1 + Random.State.int st 4 in
          Buffer.add_string buf (Printf.sprintf "struct%d(" n);
          let fields =
            List.init n (fun i ->
                let f, fp = gen (depth + 1) in
                (Printf.sprintf "f%d" i, f, fp))
          in
          Buffer.add_string buf ")";
          ( Mint.struct_ mint (List.map (fun (n', f, _) -> (n', f)) fields),
            Pres.Struct (List.map (fun (n', _, fp) -> (n', fp)) fields) )
      | _ ->
          let n = 1 + Random.State.int st 3 in
          let with_default = Random.State.bool st in
          Buffer.add_string buf (Printf.sprintf "union%d%s(" n (if with_default then "+d" else ""));
          let arms =
            List.init n (fun i ->
                let f, fp = gen (depth + 1) in
                (i, f, fp))
          in
          let default =
            if with_default then Some (gen (depth + 1)) else None
          in
          Buffer.add_string buf ")";
          let discrim = Mint.int32 mint in
          ( Mint.union mint ~discrim
              ~cases:
                (List.map
                   (fun (i, f, _) ->
                     { Mint.c_const = Mint.Cint (Int64.of_int (i * 3)); c_body = f })
                   arms)
              ~default:(Option.map (fun (d, _) -> d) default),
            Pres.Union
              {
                discrim_field = "_d";
                union_field = "_u";
                arms =
                  List.map (fun (i, _, fp) -> (Printf.sprintf "a%d" i, fp)) arms;
                default_arm = Option.map (fun (_, dp) -> ("dflt", dp)) default;
              } )
  in
  let idx, pres = gen 0 in
  { label = Buffer.contents buf; mint; named = []; idx; pres }

let arbitrary_case =
  QCheck.make ~print:(fun c -> c.label) gen_case

(* -- helpers --------------------------------------------------------- *)

let rng = Random.State.make [| 0x5eed |]

let encode_with compile enc (c : case) roots v =
  let encoder = compile ~enc ~mint:c.mint ~named:c.named roots in
  let buf = Mbuf.create 64 in
  encoder buf [| v |];
  Bytes.to_string (Mbuf.contents buf)

let opt_encoder = Stub_opt.compile_encoder

let roots_of (c : case) =
  [
    Plan_compile.Rvalue
      (Mplan.Rparam { index = 0; name = "p"; deref = false }, c.idx, c.pres);
  ]

let droots_of (c : case) = [ Stub_opt.Dvalue (c.idx, c.pres) ]

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

let equivalence_prop enc (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let opt = encode_with opt_encoder enc c (roots_of c) v in
  let naive =
    encode_with
      (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
      enc c (roots_of c) v
  in
  let interp = encode_with Stub_interp.compile_encoder enc c (roots_of c) v in
  if opt <> naive then
    QCheck.Test.fail_reportf "opt/naive bytes differ on %s:@.%s@.%s" c.label
      (hex opt) (hex naive);
  if opt <> interp then
    QCheck.Test.fail_reportf "opt/interp bytes differ on %s:@.%s@.%s" c.label
      (hex opt) (hex interp);
  true

(* Chunking is invisible to the reader: the per-datum decode plan (one
   check per load, the A1/A4 ablation's decode shape) and the chunked
   plan, which reserves a loop whose body advance is exact once and
   runs that body unchecked, read the same value from a message and
   both refuse every strict prefix of it. *)
let per_datum_decode_prop enc (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let wire = Bytes.of_string (encode_with opt_encoder enc c (roots_of c) v) in
  let decoder chunked =
    Stub_opt.decoder_of_dplan ~enc
      (Dplan_compile.compile ~enc ~mint:c.mint ~named:c.named ~chunked
         [ Dplan_compile.Dvalue (c.idx, c.pres) ])
  in
  let read d bytes =
    let r = Mbuf.reader_of_bytes bytes in
    match d r with
    | [| v' |] when Mbuf.remaining r = 0 -> Some v'
    | _ -> None
    | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> None
  in
  let chunked = decoder true and per_datum = decoder false in
  List.iter
    (fun (what, d) ->
      match read d wire with
      | Some v' when Value.equal v v' -> ()
      | Some v' ->
          QCheck.Test.fail_reportf "%s decode mismatch on %s:@.%a@.%a" what c.label
            Value.pp v Value.pp v'
      | None -> QCheck.Test.fail_reportf "%s decode refused %s" what c.label)
    [ ("chunked", chunked); ("per-datum", per_datum) ];
  for cut = 0 to Bytes.length wire - 1 do
    let prefix = Bytes.sub wire 0 cut in
    List.iter
      (fun (what, d) ->
        if Option.is_some (read d prefix) then
          QCheck.Test.fail_reportf "%s decode accepted a %d/%d-byte prefix on %s" what cut
            (Bytes.length wire) c.label)
      [ ("chunked", chunked); ("per-datum", per_datum) ]
  done;
  true

let roundtrip_prop enc decoder_of (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let bytes = encode_with opt_encoder enc c (roots_of c) v in
  let decoder = decoder_of ~enc ~mint:c.mint ~named:c.named (droots_of c) in
  let r = Mbuf.reader_of_bytes (Bytes.of_string bytes) in
  match decoder r with
  | [| v' |] ->
      if not (Value.equal v v') then
        QCheck.Test.fail_reportf "roundtrip mismatch on %s:@.%a@.%a" c.label
          Value.pp v Value.pp v'
      else if Mbuf.remaining r <> 0 then
        QCheck.Test.fail_reportf "trailing bytes on %s" c.label
      else true
  | _ -> QCheck.Test.fail_reportf "wrong arity"

let bound_prop enc (c : case) =
  let { Plan_compile.min; max } =
    Plan_compile.size ~enc ~mint:c.mint ~named:c.named c.idx c.pres
  in
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let n = String.length (encode_with opt_encoder enc c (roots_of c) v) in
  if n < min then
    QCheck.Test.fail_reportf "encoded %d bytes is below the analyzed minimum %d on %s"
      n min c.label
  else
    match max with
    | Some bound when n > bound ->
        QCheck.Test.fail_reportf "encoded %d bytes exceeds analyzed bound %d on %s" n
          bound c.label
    | Some _ | None -> true

let reservation_prop enc (c : case) =
  let plan = Plan_compile.compile ~enc ~mint:c.mint ~named:c.named (roots_of c) in
  let rec ops prev = function
    | [] -> ()
    | (op : Mplan.op) :: rest ->
        (match op with
        | Mplan.Loop { body; _ } ->
            (match (Plan_compile.bounded_advance_ops body, prev) with
            | Some u, Some (Mplan.Ensure_count { unit_size; _ }) ->
                if unit_size <> u then
                  QCheck.Test.fail_reportf "reserved %d bytes for a body bounded by %d on %s"
                    unit_size u c.label
            | Some u, _ when u > 0 ->
                QCheck.Test.fail_reportf "no reservation for a body bounded by %d on %s" u
                  c.label
            | _ -> ());
            ops None body
        | Mplan.Switch { arms; default; _ } ->
            List.iter (fun (a : Mplan.arm) -> ops None a.Mplan.a_body) arms;
            Option.iter (fun (_, body) -> ops None body) default
        | _ -> ());
        ops (Some op) rest
  in
  ops None plan.Plan_compile.p_ops;
  List.iter (fun (_, body) -> ops None body) plan.Plan_compile.p_subs;
  true

(* -- encoding into a reused writer ------------------------------------- *)

(* Put [w] in the state a pooled reply writer is in when a stub starts:
   storage that earlier messages left dirty, then a [head]-byte frame
   header with the origin after it. *)
let dirty_writer w ~head =
  Mbuf.reset w;
  Mbuf.ensure w 4096;
  Mbuf.set_string w 0 (String.make 4096 '\xff') 0 4096;
  Mbuf.advance w 4096;
  Mbuf.reset w;
  for _ = 1 to head do
    Mbuf.put_u8 w 0xa5
  done;
  Mbuf.set_origin w

(* The bytes [encode] writes into [w] behind a [head]-byte header. *)
let encode_behind w ~head encode =
  dirty_writer w ~head;
  encode w;
  let b = Mbuf.contents w in
  Bytes.sub_string b head (Bytes.length b - head)

(* A chunk stores at constant offsets from the cursor and zero-fills its
   alignment gaps, and one encoder serves every call: so whatever the
   writer held and however long the header, the message behind it is
   naive's bytes from a fresh writer. *)
let reused_writer_prop enc (c : case) =
  let e = opt_encoder ~enc ~mint:c.mint ~named:c.named (roots_of c) in
  let w = Mbuf.create 16 in
  List.for_all
    (fun head ->
      let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
      let got = encode_behind w ~head (fun w -> e w [| v |]) in
      let naive =
        encode_with
          (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
          enc c (roots_of c) v
      in
      if got <> naive then
        QCheck.Test.fail_reportf
          "behind a %d-byte header in a reused writer, opt/naive bytes \
           differ on %s:@.%s@.%s"
          head c.label (hex got) (hex naive);
      true)
    [ 0; 3; 5 ]

let qtest name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arbitrary_case prop)

let property_tests =
  List.concat_map
    (fun enc ->
      let n = enc.Encoding.name in
      [
        qtest (n ^ ": three engines agree byte-for-byte") (equivalence_prop enc);
        qtest (n ^ ": per-datum decode plans read what the chunked plans read")
          (per_datum_decode_prop enc);
        qtest (n ^ ": optimized decode inverts encode")
          (roundtrip_prop enc (fun ~enc ~mint ~named droots ->
             Stub_opt.compile_decoder ~enc ~mint ~named droots));
        qtest (n ^ ": naive decode inverts encode")
          (roundtrip_prop enc (Stub_naive.compile_decoder ~config:Stub_naive.default_config));
        qtest (n ^ ": storage bound holds") (bound_prop enc);
        qtest (n ^ ": a reused writer behind a header gets naive's bytes")
          (reused_writer_prop enc);
      ])
    Encoding.all
  @ List.map
      (fun enc ->
        qtest (enc.Encoding.name ^ ": loop reservations are the bodies' bounds")
          (reservation_prop enc))
      Encoding.all

(* -- recursive types (named presentations) --------------------------- *)

let linked_list_case () =
  let mint = Mint.create () in
  let node = Mint.reserve mint in
  let next = Mint.array mint ~elem:node ~min_len:0 ~max_len:(Some 1) in
  Mint.set mint node (Mint.Struct [ ("v", Mint.int32 mint); ("next", next) ]);
  let node_pres =
    Pres.Struct [ ("v", Pres.Direct); ("next", Pres.Opt_ptr (Pres.Ref "node")) ]
  in
  {
    label = "linked-list";
    mint;
    named = [ ("node", (node, node_pres)) ];
    idx = node;
    pres = Pres.Ref "node";
  }

let rec list_value n =
  if n = 0 then Value.Vstruct [| Value.Vint 0; Value.Vopt None |]
  else Value.Vstruct [| Value.Vint n; Value.Vopt (Some (list_value (n - 1))) |]

let recursive_tests =
  List.map
    (fun enc ->
      Alcotest.test_case
        (enc.Encoding.name ^ ": recursive linked list across engines") `Quick
        (fun () ->
          let c = linked_list_case () in
          let v = list_value 17 in
          let opt =
    encode_with
      (fun ~enc ~mint ~named roots ->
        Stub_opt.compile_encoder ~enc ~mint ~named roots)
      enc c (roots_of c) v
  in
          let naive =
            encode_with
              (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
              enc c (roots_of c) v
          in
          let interp =
            encode_with Stub_interp.compile_encoder enc c (roots_of c) v
          in
          Alcotest.(check string) "opt = naive" (hex opt) (hex naive);
          Alcotest.(check string) "opt = interp" (hex opt) (hex interp);
          let dec =
            Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named
              (droots_of c)
          in
          let out = dec (Mbuf.reader_of_bytes (Bytes.of_string opt)) in
          Alcotest.(check bool) "roundtrip" true (Value.equal v out.(0))))
    Encoding.all

(* -- message roots (operation discriminators) ------------------------ *)

let root_tests =
  [
    Alcotest.test_case "string-keyed request roots round trip" `Quick (fun () ->
        let c = gen_case (Random.State.make [| 1 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let roots = Plan_compile.Rconst_str "read_dir" :: roots_of c in
        let droots = Stub_opt.Dconst_str "read_dir" :: droots_of c in
        List.iter
          (fun enc ->
            let opt = encode_with opt_encoder enc c roots v in
            let naive =
              encode_with
                (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
                enc c roots v
            in
            Alcotest.(check string)
              (enc.Encoding.name ^ " bytes") (hex opt) (hex naive);
            let dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named droots
            in
            let out = dec (Mbuf.reader_of_bytes (Bytes.of_string opt)) in
            Alcotest.(check bool)
              (enc.Encoding.name ^ " roundtrip")
              true
              (Value.equal v out.(0)))
          Encoding.all);
    Alcotest.test_case "integer-keyed request roots round trip" `Quick
      (fun () ->
        let c = gen_case (Random.State.make [| 2 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let kind = Encoding.Kint { bits = 32; signed = false } in
        let roots = Plan_compile.Rconst_int (7L, kind) :: roots_of c in
        let droots = Stub_opt.Dconst_int (7L, kind) :: droots_of c in
        List.iter
          (fun enc ->
            let bytes = encode_with opt_encoder enc c roots v in
            let dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named droots
            in
            let out = dec (Mbuf.reader_of_bytes (Bytes.of_string bytes)) in
            Alcotest.(check bool)
              (enc.Encoding.name ^ " roundtrip")
              true
              (Value.equal v out.(0));
            (* a wrong discriminator must be rejected *)
            let bad_droots = Stub_opt.Dconst_int (8L, kind) :: droots_of c in
            let bad_dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named
                bad_droots
            in
            match bad_dec (Mbuf.reader_of_bytes (Bytes.of_string bytes)) with
            | _ -> Alcotest.fail "expected a decode error"
            | exception Codec.Decode_error _ -> ())
          Encoding.all);
  ]

(* -- failure injection ------------------------------------------------ *)

(* sequence<struct { string<4> name; long x; }>: its loop reserves each
   element at the name's bound and stores the long unchecked after the
   name, so a longer name must be refused before anything is stored.
   Every engine raises Invalid_argument naming the bound, in every
   encoding, into a fresh 16-byte writer; in bounds, all three write
   naive's bytes. *)
let bounded_string_test () =
  let mint = Mint.create () in
  let name = Mint.string_ mint ~max_len:(Some 4) in
  let elem = Mint.struct_ mint [ ("name", name); ("x", Mint.int32 mint) ] in
  let c =
    {
      label = "sequence<struct { string<4> name; long x; }>";
      mint;
      named = [];
      idx = Mint.array mint ~elem ~min_len:0 ~max_len:None;
      pres =
        Pres.Counted_seq
          {
            len_field = "len";
            buf_field = "val";
            elem = Pres.Struct [ ("name", Pres.Terminated_string); ("x", Pres.Direct) ];
          };
    }
  in
  let st = Random.State.make [| 4 |] in
  List.iter
    (fun enc ->
      let engines =
        List.map
          (fun (what, compile) -> (what, compile ~enc ~mint ~named:[] (roots_of c)))
          [
            ("Stub_opt", opt_encoder);
            ("Stub_naive", Stub_naive.compile_encoder ~config:Stub_naive.default_config);
            ("Stub_interp", Stub_interp.compile_encoder);
          ]
      in
      for _ = 1 to 300 do
        let names =
          List.init (1 + Random.State.int st 6) (fun _ ->
              String.make
                (if Random.State.bool st then Random.State.int st 5
                 else 5 + Random.State.int st 296)
                'n')
        in
        let over = List.exists (fun s -> String.length s > 4) names in
        let v =
          Value.Varray
            (Array.of_list
               (List.map (fun s -> Value.Vstruct [| Value.Vstring s; Value.Vint 7 |]) names))
        in
        let outs =
          List.map
            (fun (what, e) ->
              let buf = Mbuf.create 16 in
              match e buf [| v |] with
              | () when over ->
                  Alcotest.failf "%s %s: stored names of %s" enc.Encoding.name what
                    (String.concat "," (List.map (fun s -> string_of_int (String.length s)) names))
              | () -> Bytes.to_string (Mbuf.contents buf)
              | exception Invalid_argument msg when over ->
                  let bound = "exceeds its bound 4" and n = String.length msg in
                  if not (n >= 19 && String.sub msg (n - 19) 19 = bound) then
                    Alcotest.failf "%s %s: %S does not name the bound" enc.Encoding.name what msg;
                  ""
              | exception Invalid_argument msg ->
                  Alcotest.failf "%s %s: refused names within the bound: %s" enc.Encoding.name
                    what msg)
            engines
        in
        match outs with
        | opt :: rest when not over ->
            List.iter (Alcotest.(check string) (enc.Encoding.name ^ " engines agree") (hex opt)) (List.map hex rest)
        | _ -> ()
      done)
    Encoding.all

(* A Bench dirent whose [long fields[30]] holds 29 or 31 ints: every
   engine raises Invalid_argument naming both lengths, in every
   encoding, before it stores the array (Stub_opt's unrolled fields
   used to store 29 words and fail on the 30th, or drop the 31st). *)
let fixed_length_test () =
  List.iter
    (fun enc ->
      let style = match enc.Encoding.name with "cdr" -> `Corba | "xdr" -> `Rpcgen | _ -> `Fluke in
      let spec = Paper_fixtures.request_spec (Paper_fixtures.bench_presc style) ~op:"send_dirents" in
      let mint = spec.Paper_fixtures.ms_mint and named = spec.Paper_fixtures.ms_named in
      List.iter
        (fun n ->
          let entry =
            Value.Vstruct
              [| Value.Vstring "name";
                 Value.Vstruct [| Value.Vint_array (Array.make n 7); Value.Vbytes (Bytes.make 16 'x') |] |]
          in
          List.iter
            (fun (what, compile) ->
              let e = compile ~enc ~mint ~named spec.Paper_fixtures.ms_roots in
              match e (Mbuf.create 16) [| Value.Varray [| entry |] |] with
              | () -> Alcotest.failf "%s %s: stored %d fields" enc.Encoding.name what n
              | exception Invalid_argument msg ->
                  let says x = List.mem (string_of_int x) (String.split_on_char ' ' msg) in
                  if not (says n && says 30) then
                    Alcotest.failf "%s %s: %S does not name %d and 30" enc.Encoding.name what msg n)
            [
              ("Stub_opt", opt_encoder);
              ("Stub_naive", Stub_naive.compile_encoder ~config:Stub_naive.default_config);
              ("Stub_interp", Stub_interp.compile_encoder);
            ])
        [ 29; 31 ])
    Encoding.all

(* A Bench dirent whose [char tag[16]] is a string of 10, 16 or 20
   characters rather than bytes: every engine raises Invalid_argument,
   in every encoding (Stub_opt used to store the first 16 characters,
   or fail in the stdlib's blit). *)
let fixed_bytes_string_test () =
  List.iter
    (fun enc ->
      let style = match enc.Encoding.name with "cdr" -> `Corba | "xdr" -> `Rpcgen | _ -> `Fluke in
      let spec = Paper_fixtures.request_spec (Paper_fixtures.bench_presc style) ~op:"send_dirents" in
      let mint = spec.Paper_fixtures.ms_mint and named = spec.Paper_fixtures.ms_named in
      List.iter
        (fun n ->
          let entry =
            Value.Vstruct
              [| Value.Vstring "name";
                 Value.Vstruct [| Value.Vint_array (Array.make 30 7); Value.Vstring (String.make n 't') |] |]
          in
          List.iter
            (fun (what, compile) ->
              let e = compile ~enc ~mint ~named spec.Paper_fixtures.ms_roots in
              match e (Mbuf.create 16) [| Value.Varray [| entry |] |] with
              | () -> Alcotest.failf "%s %s: stored a %d-character string as tag" enc.Encoding.name what n
              | exception Invalid_argument _ -> ())
            [
              ("Stub_opt", opt_encoder);
              ("Stub_naive", Stub_naive.compile_encoder ~config:Stub_naive.default_config);
              ("Stub_interp", Stub_interp.compile_encoder);
            ])
        [ 10; 16; 20 ])
    Encoding.all

(* union switch (long d) { case 0: long a0; case 3: long a1; case 6:
   long a2; [default: long dflt;] }: a value naming no arm (case 3, -2,
   or -1 with no default arm), a named case whose discriminator is not
   its constant, or a default arm whose discriminator is a case's
   constant, is refused before any store by every engine, in every
   encoding, with one message; a well-formed value encodes alike. *)
let malformed_union_test () =
  let union ~default =
    let mint = Mint.create () in
    let i32 = Mint.int32 mint in
    let idx =
      Mint.union mint ~discrim:i32
        ~cases:(List.init 3 (fun i -> { Mint.c_const = Mint.Cint (Int64.of_int (3 * i)); c_body = i32 }))
        ~default:(if default then Some i32 else None)
    in
    let pres =
      Pres.Union
        {
          discrim_field = "_d";
          union_field = "_u";
          arms = List.init 3 (fun i -> (Printf.sprintf "a%d" i, Pres.Direct));
          default_arm = (if default then Some ("dflt", Pres.Direct) else None);
        }
    in
    { label = "union"; mint; named = []; idx; pres }
  in
  let engines =
    [
      ("Stub_opt", opt_encoder);
      ("Stub_naive", Stub_naive.compile_encoder ~config:Stub_naive.default_config);
      ("Stub_interp", Stub_interp.compile_encoder);
    ]
  in
  let v case d = Value.Vunion { case; discrim = Mint.Cint d; payload = Value.Vint 5 } in
  List.iter
    (fun enc ->
      List.iter
        (fun default ->
          let c = union ~default in
          let run value =
            List.map
              (fun (what, compile) ->
                let e = compile ~enc ~mint:c.mint ~named:c.named (roots_of c) in
                let buf = Mbuf.create 16 in
                match e buf [| value |] with
                | () -> (what, Ok (Bytes.to_string (Mbuf.contents buf)))
                | exception Invalid_argument msg ->
                    if Mbuf.pos buf <> 0 then
                      Alcotest.failf "%s %s: stored %d bytes before refusing" enc.Encoding.name what
                        (Mbuf.pos buf);
                    (what, Error msg))
              engines
          in
          let name = Printf.sprintf "%s, %s default" enc.Encoding.name (if default then "with" else "no") in
          List.iter
            (fun (why, value) ->
              match run value with
              | (_, Error msg) :: rest ->
                  List.iter
                    (fun (what, o) ->
                      match o with
                      | Error m when m = msg -> ()
                      | Error m -> Alcotest.failf "%s, %s: %s says %S, Stub_opt %S" name why what m msg
                      | Ok _ -> Alcotest.failf "%s, %s: %s encoded it" name why what)
                    rest
              | _ -> Alcotest.failf "%s, %s: Stub_opt encoded it" name why)
            ([ ("case 3 of 3", v 3 9L); ("case -2", v (-2) 9L); ("case 1 with discriminator 12345", v 1 12345L) ]
            @ (if default then [ ("the default arm with case 2's constant", v (-1) 6L) ]
               else [ ("case -1 with no default arm", v (-1) 9L) ]));
          List.iter
            (fun (why, value) ->
              match run value with
              | (_, Ok want) :: rest ->
                  List.iter
                    (fun (what, o) ->
                      if o <> Ok want then Alcotest.failf "%s, %s: %s differs from Stub_opt" name why what)
                    rest
              | _ -> Alcotest.failf "%s, %s: Stub_opt refused it" name why)
            ([ ("case 1", v 1 3L) ] @ if default then [ ("the default arm", v (-1) 7L) ] else []))
        [ false; true ])
    Encoding.all

let failure_tests =
  [
    Alcotest.test_case "truncated buffers raise Short_buffer" `Quick (fun () ->
        let c = gen_case (Random.State.make [| 3 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let enc = Encoding.cdr in
        let bytes = encode_with opt_encoder enc c (roots_of c) v in
        let dec =
          Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named (droots_of c)
        in
        let n = String.length bytes in
        (* every strict prefix must fail cleanly, never crash or succeed *)
        for cut = 0 to n - 1 do
          let r =
            Mbuf.reader_of_bytes (Bytes.of_string (String.sub bytes 0 cut))
          in
          match dec r with
          | _ -> ()
          (* some prefixes decode if the value has a shorter valid form;
             that is acceptable only when trailing data was an array tail *)
          | exception Mbuf.Short_buffer -> ()
          | exception Codec.Decode_error _ -> ()
        done);
    Alcotest.test_case "oversized sequence length is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let seq = Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:(Some 4) in
        let pres =
          Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 64 in
        Mbuf.put_i32 buf ~be:true 5 (* claims 5 > bound 4 *);
        for i = 1 to 5 do
          Mbuf.put_i32 buf ~be:true i
        done;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (seq, pres) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "invalid boolean is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let b = Mint.bool_ mint in
        let enc = Encoding.cdr in
        let buf = Mbuf.create 4 in
        Mbuf.put_u8 buf 7;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (b, Pres.Direct) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "invalid optional count is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let opt = Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:(Some 1) in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 8 in
        Mbuf.put_i32 buf ~be:true 2;
        Mbuf.put_i32 buf ~be:true 42;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (opt, Pres.Opt_ptr Pres.Direct) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "an over-long bounded string is refused before any store" `Quick
      bounded_string_test;
    Alcotest.test_case "a fixed array of the wrong length is refused" `Quick fixed_length_test;
    Alcotest.test_case "a string where a fixed byte array is expected is refused" `Quick
      fixed_bytes_string_test;
    Alcotest.test_case "a malformed union is refused alike" `Quick malformed_union_test;
  ]

(* A freshly compiled encoder stores a 64 KiB message from its first
   call without boxing: under 5 minor words per KB of wire.  Dirents
   are the case to watch: each entry's 30 [fields] are stored by one
   in-window call, not one boxed int each.  Boxed rects take one rows
   kernel call, which allocates nothing per rect: at most 0.5. *)
let first_call_allocation_test () =
  List.iter
    (fun (enc, style) ->
      List.iter
        (fun payload ->
          Plan_cache.reset_all ();
          let spec =
            Paper_fixtures.request_spec (Paper_fixtures.bench_presc style)
              ~op:(Paper_fixtures.op_of_payload payload)
          in
          let e =
            Stub_opt.compile_encoder ~enc ~mint:spec.Paper_fixtures.ms_mint
              ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
          in
          let args = [| Paper_fixtures.payload payload ~bytes:65536 |] in
          let buf = Mbuf.create 200_000 in
          let w0 = Gc.minor_words () in
          e buf args;
          let words = Gc.minor_words () -. w0 in
          let per_kb = words /. (float_of_int (Mbuf.pos buf) /. 1024.) in
          if per_kb >= 5. || (payload = `Rects && per_kb > 0.5) then
            Alcotest.failf "%s %s: first call allocated %.2f minor words/KB"
              enc.Encoding.name (Paper_fixtures.op_of_payload payload) per_kb)
        [ `Ints; `Rects; `Dirents ])
    [
      (Encoding.xdr, `Rpcgen);
      (Encoding.cdr, `Corba);
      (Encoding.mach3, `Fluke);
      (Encoding.fluke, `Fluke);
      (Encoding.msgpack, `Fluke);
      (Encoding.cbor, `Fluke);
    ]

(* -- the chunk compiler's stores ---------------------------------------- *)

(* A chunk compiles to three kinds of store: one blit of a precomputed
   image for byte-adjacent constants, one in-window call for the 4-byte
   integer fields of one aggregate, and one store per other item, with
   the gaps between them zero-filled.  Each test below first checks its
   plans hold the kind it is about, so the bytes it compares exercise
   that store. *)

(* the item lists of a plan's chunks, in loops and switch arms too *)
let rec chunks_of (ops : Mplan.op list) =
  List.concat_map
    (fun (op : Mplan.op) ->
      match op with
      | Mplan.Chunk { size; items; _ } -> [ (size, items) ]
      | Mplan.Loop { body; _ } -> chunks_of body
      | Mplan.Switch { arms; default; _ } ->
          List.concat_map (fun a -> chunks_of a.Mplan.a_body) arms
          @ (match default with Some (_, body) -> chunks_of body | None -> [])
      | _ -> [])
    ops

let item_span (it : Mplan.item) =
  match it with
  | Mplan.It_atom { off; atom; _ } | Mplan.It_const { off; atom; _ } ->
      (off, off + atom.Mplan.size)
  | Mplan.It_bytes { off; len; pad; _ } -> (off, off + len + pad)

let has_image (_, items) =
  let consts =
    List.filter_map
      (fun (it : Mplan.item) ->
        match it with Mplan.It_const _ -> Some (item_span it) | _ -> None)
      items
  in
  List.exists (fun (_, e) -> List.exists (fun (s, _) -> s = e) consts) consts

(* the aggregates two or more of whose 4-byte integer fields one chunk
   stores *)
let run_bases (_, items) =
  let bases =
    List.filter_map
      (fun (it : Mplan.item) ->
        match it with
        | Mplan.It_atom
            { atom = { Mplan.kind = Encoding.Kint _; size = 4; _ };
              src = Mplan.Rfield { base; _ }; _ } ->
            Some base
        | _ -> None)
      items
  in
  List.sort_uniq compare
    (List.filter
       (fun b -> List.length (List.filter (( = ) b) bases) > 1)
       bases)

let has_gap (size, items) =
  List.fold_left (fun n it -> let s, e = item_span it in n + e - s) 0 items
  < size

let plan_chunks ~enc ~mint ~named roots =
  chunks_of (Plan_cache.plan ~enc ~mint ~named roots).Plan_compile.p_ops

(* Encode [v] behind a short header in a dirty writer, and compare with
   naive's bytes from a fresh one. *)
let check_behind_header ~what ~enc ~mint ~named roots v =
  let e = Stub_opt.compile_encoder ~enc ~mint ~named roots in
  let got = encode_behind (Mbuf.create 16) ~head:1 (fun w -> e w [| v |]) in
  let buf = Mbuf.create 64 in
  Stub_naive.compile_encoder ~config:Stub_naive.default_config ~enc ~mint
    ~named roots buf [| v |];
  Alcotest.(check string)
    (Printf.sprintf "%s %s = naive" enc.Encoding.name what)
    (hex (Bytes.to_string (Mbuf.contents buf)))
    (hex got)

let const_image_test () =
  let mint = Mint.create () in
  let idx = Mint.int32 mint in
  let roots =
    [
      Plan_compile.Rconst_int (7L, Encoding.Kint { bits = 32; signed = false });
      Plan_compile.Rconst_int (-2L, Encoding.Kint { bits = 16; signed = true });
      Plan_compile.Rconst_int
        (0x1_2345_6789L, Encoding.Kint { bits = 64; signed = true });
      Plan_compile.Rconst_int (200L, Encoding.Kint { bits = 8; signed = false });
      Plan_compile.Rconst_int (1L, Encoding.Kbool);
      Plan_compile.Rvalue
        (Mplan.Rparam { index = 0; name = "p"; deref = false }, idx, Pres.Direct);
    ]
  in
  List.iter
    (fun enc ->
      Alcotest.(check bool)
        (enc.Encoding.name ^ ": some chunk holds adjacent constants")
        true
        (List.exists has_image (plan_chunks ~enc ~mint ~named:[] roots));
      check_behind_header ~what:"constant roots" ~enc ~mint ~named:[] roots
        (Value.Vint (-5)))
    Encoding.all

(* struct { char c; long a; short h; unsigned long b; double d;
            long arr[3]; struct { long x; long y; } inner; long z; } *)
let field_run_case () =
  let mint = Mint.create () in
  let i32 = Mint.int32 mint in
  let inner = Mint.struct_ mint [ ("x", i32); ("y", i32) ] in
  let idx =
    Mint.struct_ mint
      [
        ("c", Mint.char8 mint);
        ("a", i32);
        ("h", Mint.int_ mint ~bits:16 ~signed:true);
        ("b", Mint.int_ mint ~bits:32 ~signed:false);
        ("d", Mint.float_ mint ~bits:64);
        ("arr", Mint.fixed_array mint ~elem:i32 ~len:3);
        ("inner", inner);
        ("z", i32);
      ]
  in
  let pres =
    Pres.Struct
      [
        ("c", Pres.Direct);
        ("a", Pres.Direct);
        ("h", Pres.Direct);
        ("b", Pres.Direct);
        ("d", Pres.Direct);
        ("arr", Pres.Fixed_array Pres.Direct);
        ("inner", Pres.Struct [ ("x", Pres.Direct); ("y", Pres.Direct) ]);
        ("z", Pres.Direct);
      ]
  in
  { label = "field-runs"; mint; named = []; idx; pres }

(* The fields at the 32-bit extremes; [arr] spelled as the int array
   Workload and the decoders build, or as an array of boxed ints. *)
let field_run_value ~boxed =
  let ints = [| -0x8000_0000; 0x7fff_ffff; -1 |] in
  Value.Vstruct
    [|
      Value.Vchar 'q';
      Value.Vint (-0x8000_0000);
      Value.Vint (-32768);
      Value.Vint 0xffff_ffff;
      Value.Vfloat (-0.5);
      (if boxed then Value.Varray (Array.map (fun n -> Value.Vint n) ints)
       else Value.Vint_array ints);
      Value.Vstruct [| Value.Vint 0x7fff_ffff; Value.Vint 0x1234_5678 |];
      Value.Vint 0;
    |]

let field_run_test () =
  let c = field_run_case () in
  let roots = roots_of c in
  List.iter
    (fun enc ->
      if enc.Encoding.var = None then begin
        let chunks = plan_chunks ~enc ~mint:c.mint ~named:c.named roots in
        (* the struct itself, [arr] and [inner] *)
        let bases = List.sort_uniq compare (List.concat_map run_bases chunks) in
        Alcotest.(check bool)
          (enc.Encoding.name ^ ": three aggregates store field runs")
          true
          (List.length bases >= 3);
        (* CDR pads [c] and [h] up to the next field's alignment *)
        if enc == Encoding.cdr then
          Alcotest.(check bool) "cdr: some chunk has an alignment gap" true
            (List.exists has_gap chunks)
      end;
      List.iter
        (fun boxed ->
          check_behind_header
            ~what:(if boxed then "boxed arr" else "int array arr")
            ~enc ~mint:c.mint ~named:c.named roots (field_run_value ~boxed))
        [ false; true ])
    Encoding.all

(* The paper's requests, whose chunks hold every kind of store (dirent
   fields, Mach descriptors, rects in the fused loop), into a reused
   writer behind a header. *)
let bench_request_test () =
  List.iter
    (fun enc ->
      let style =
        if enc == Encoding.xdr then `Rpcgen
        else if enc == Encoding.cdr then `Corba
        else `Fluke
      in
      List.iter
        (fun payload ->
          let op = Paper_fixtures.op_of_payload payload in
          let spec =
            Paper_fixtures.request_spec (Paper_fixtures.bench_presc style) ~op
          in
          check_behind_header ~what:op ~enc ~mint:spec.Paper_fixtures.ms_mint
            ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
            (Paper_fixtures.payload payload ~bytes:2048))
        [ `Ints; `Rects; `Dirents ])
    Encoding.all

(* -- decoded views re-encode in every engine --------------------------- *)

(* A value Stub_opt decodes with zero-copy views on (every string and
   byte run at or above the threshold comes back as a
   [Vstring_view]/[Vbytes_view]) must re-encode in all three engines to
   the bytes of its materialized spelling.  Threshold 1 makes every
   non-empty run a view. *)
let with_views_at_1 f =
  let on = Mbuf.sg_enabled () and th = Mbuf.borrow_threshold () in
  Mbuf.set_sg_enabled true;
  Mbuf.set_borrow_threshold 1;
  Fun.protect f ~finally:(fun () ->
      Mbuf.set_sg_enabled on;
      Mbuf.set_borrow_threshold th)

let engines =
  [
    ("opt", opt_encoder);
    ("naive", Stub_naive.compile_encoder ~config:Stub_naive.default_config);
    ("interp", Stub_interp.compile_encoder);
  ]

(* [viewed] against its materialized spelling, through each engine *)
let reencode_views ~label ~enc ~mint ~named roots viewed =
  let owned = Array.map Value.materialize viewed in
  List.iter
    (fun (engine, compile) ->
      let run vals =
        let buf = Mbuf.create 64 in
        match compile ~enc ~mint ~named roots buf vals with
        | () -> Ok (Bytes.to_string (Mbuf.contents buf))
        | exception e -> Error (Printexc.to_string e)
      in
      match (run viewed, run owned) with
      | Ok a, Ok b when a = b -> ()
      | Ok a, Ok b ->
          QCheck.Test.fail_reportf "%s: %s writes views differently on %s:@.%s@.%s" enc.Encoding.name
            engine label (hex a) (hex b)
      | Error e, _ -> QCheck.Test.fail_reportf "%s: %s refuses views on %s: %s" enc.Encoding.name engine label e
      | Ok _, Error e ->
          QCheck.Test.fail_reportf "%s: %s refuses the materialized value on %s: %s" enc.Encoding.name
            engine label e)
    engines

let views_prop enc (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let wire = encode_with opt_encoder enc c (roots_of c) v in
  let viewed =
    with_views_at_1 (fun () ->
        Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named ~views:true (droots_of c)
          (Mbuf.reader_of_bytes (Bytes.of_string wire)))
  in
  reencode_views ~label:c.label ~enc ~mint:c.mint ~named:c.named (roots_of c) viewed;
  true

let views_tests =
  List.map
    (fun enc ->
      qtest (enc.Encoding.name ^ ": decoded views re-encode in every engine") (views_prop enc))
    Encoding.all
  @ [
      Alcotest.test_case "Bench payloads decoded with views re-encode in every engine" `Quick
        (fun () ->
          let pc = Paper_fixtures.bench_presc `Rpcgen in
          List.iter
            (fun enc ->
              List.iter
                (fun kind ->
                  let ms = Paper_fixtures.request_spec pc ~op:(Paper_fixtures.op_of_payload kind) in
                  let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
                  let buf = Mbuf.create 64 in
                  Stub_opt.compile_encoder ~enc ~mint ~named ms.Paper_fixtures.ms_roots buf
                    [| Paper_fixtures.payload kind ~bytes:2048 |];
                  let viewed =
                    with_views_at_1 (fun () ->
                        Stub_opt.compile_decoder ~enc ~mint ~named ~views:true
                          ms.Paper_fixtures.ms_droots
                          (Mbuf.reader_of_bytes (Mbuf.contents buf)))
                  in
                  reencode_views ~label:ms.Paper_fixtures.ms_name ~enc ~mint ~named
                    ms.Paper_fixtures.ms_roots viewed)
                [ `Ints; `Rects; `Dirents ])
            Encoding.all);
    ]

let suite =
  [
    ("engines:properties", property_tests);
    ("engines:recursive", recursive_tests);
    ("engines:roots", root_tests);
    ("engines:failures", failure_tests);
    ("engines:views", views_tests);
    ( "engines:allocation",
      [
        Alcotest.test_case "a fresh encoder's first call allocates < 5 words/KB"
          `Quick first_call_allocation_test;
      ] );
    ( "engines:chunks",
      [
        Alcotest.test_case "adjacent constants store as naive" `Quick
          const_image_test;
        Alcotest.test_case "integer field runs store as naive" `Quick
          field_run_test;
        Alcotest.test_case "bench requests store as naive behind a header"
          `Quick bench_request_test;
      ] );
  ]
