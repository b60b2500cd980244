(* Goldens of what the plan compilers produce, as reviewable diffs:

   - every plan the end-to-end benchmark's stubs run: the request of
     each Bench operation (operation key included) under the five
     encodings, encode and decode, and the xdr->xdr and cdr->xdr relays
     of the gateway workload;
   - `flick dump-plan` over a probe of the constructs the optimizations
     touch: enums, unions (msgpack/CBOR arms that start with a double
     and with a boolean), mixed scalars, a bounded sequence of structs
     holding bounded strings, octet/short/double sequences, out/inout
     parameters, a MIG subsystem and an rpcgen .x, under every
     presentation, backend and self-describing encoding, with eight
     relay pairs.

   Regenerate one with FLICK_REGEN_GOLDENS=<path of the golden>
   (DESIGN.md §8). *)

let test name f = Alcotest.test_case name `Quick f

let golden name out =
  Test_driver.regen_golden name out;
  Alcotest.(check string) name
    (String.trim (Test_driver.read_golden name))
    (String.trim out)

(* -- the benchmark's stub plans -------------------------------------- *)

(* As bench/e2e builds its specs: cdr under the CORBA presentation, xdr
   under rpcgen, every other encoding under Fluke's. *)
let bench_spec (enc : Encoding.t) kind =
  let style =
    match enc.Encoding.name with
    | "cdr" -> `Corba
    | "xdr" -> `Rpcgen
    | _ -> `Fluke
  in
  Paper_fixtures.request_spec
    (Paper_fixtures.bench_presc style)
    ~op:(Paper_fixtures.op_of_payload kind)

let kinds = [ `Ints; `Rects; `Dirents ]

(* the Mbuf defaults, spelled out so another test's policy cannot leak
   into the golden *)
let sg = true
let sg_threshold = 512

let stub_plans () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (enc : Encoding.t) ->
      List.iter
        (fun kind ->
          let ms = bench_spec enc kind in
          let mint = ms.Paper_fixtures.ms_mint
          and named = ms.Paper_fixtures.ms_named in
          let p =
            Plan_cache.plan ~enc ~mint ~named ~sg ~sg_threshold
              ms.Paper_fixtures.ms_roots
          in
          Buffer.add_string b
            (Format.asprintf "=== encode %s %s ===@.%a@." enc.Encoding.name
               ms.Paper_fixtures.ms_name Mplan.pp p.Plan_compile.p_ops);
          List.iter
            (fun (name, ops) ->
              Buffer.add_string b
                (Format.asprintf "--- subroutine %s ---@.%a@." name Mplan.pp
                   ops))
            p.Plan_compile.p_subs;
          let d =
            Plan_cache.dplan ~enc ~mint ~named ~views:false
              ~view_threshold:sg_threshold
              (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots)
          in
          Buffer.add_string b
            (Format.asprintf "=== decode %s %s ===@.%a@." enc.Encoding.name
               ms.Paper_fixtures.ms_name Dplan.pp_plan d))
        kinds)
    Encoding.[ xdr; cdr; mach3; msgpack; cbor ];
  List.iter
    (fun ((src : Encoding.t), (dst : Encoding.t)) ->
      List.iter
        (fun kind ->
          let ms = bench_spec src kind in
          let f =
            Fplan_compile.fuse ~src ~dst ~mint:ms.Paper_fixtures.ms_mint
              ~named:ms.Paper_fixtures.ms_named ~sg ~sg_threshold
              (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots)
              ms.Paper_fixtures.ms_roots
          in
          Buffer.add_string b
            (Format.asprintf "=== relay %s->%s %s ===@.%a@." src.Encoding.name
               dst.Encoding.name ms.Paper_fixtures.ms_name Fplan.pp_plan f))
        kinds)
    Encoding.[ (xdr, xdr); (cdr, xdr) ];
  Buffer.contents b

(* -- the dump-plan probe --------------------------------------------- *)

let probe_idl =
  "enum color { RED, GREEN, BLUE };\n\
   struct stat_info { long fields[30]; char tag[16]; };\n\
   struct dirent { string name; stat_info info; };\n\
   struct coord { long x; long y; };\n\
   struct rect { coord min; coord max; };\n\
   struct mixed { octet a; short b; long c; double d; boolean e; char f;\n\
  \  unsigned short g; long long h; float i; };\n\
   struct named { string<4> n; long x; };\n\
   union shape switch (long) { case 1: rect r; case 2: coord c;\n\
  \  case 5: double d; case 6: boolean b; default: long other; };\n\
   union tint switch (color) { case RED: long r; case GREEN: string g;\n\
  \  case BLUE: boolean b; };\n\
   typedef sequence<long> long_seq;\n\
   typedef sequence<rect> rect_seq;\n\
   typedef sequence<dirent> dirent_seq;\n\
   typedef sequence<named, 8> named_seq;\n\
   typedef sequence<octet> octet_seq;\n\
   typedef sequence<short> short_seq;\n\
   typedef sequence<double> double_seq;\n\
   interface Probe {\n\
  \  void send_ints(in long_seq data);\n\
  \  void send_rects(in rect_seq data);\n\
  \  void send_dirents(in dirent_seq data);\n\
  \  void send_mixed(in mixed m, in color c, in shape s, in tint t);\n\
  \  void send_named(in named_seq ns);\n\
  \  void send_seqs(in octet_seq o, in short_seq s, in double_seq d);\n\
  \  long swap(inout long a, out long b, in string tag);\n\
   };"

let probe_x =
  "enum kind { K_INT = 0, K_STR = 1, K_NONE = 2 };\n\
   union value switch (kind k) { case K_INT: int i;\n\
  \  case K_STR: string s<16>; default: void; };\n\
   struct entry { string name<32>; int vals<4>; opaque tag[6]; hyper h;\n\
  \  double d; bool b; value v; };\n\
   typedef entry entries<>;\n\
   program PROBE { version PROBE_V1 { int put(entry) = 1;\n\
  \  void put_many(entries) = 2; } = 1; } = 0x20000099;"

let probe_defs =
  "subsystem device 500;\n\
   type buf_t = array[*:4096] of char;\n\
   type regs_t = array[8] of int;\n\
   routine device_write(in offset : int; in data : buf_t);\n\
   routine device_regs(out regs : regs_t);\n\
   skip;\n\
   simpleroutine device_reset(in code : int);"

let backends =
  Driver.[ Back_iiop; Back_oncrpc; Back_mach3; Back_fluke ]

(* (file, idl, source, presentation, backend, encoding override) *)
let probe_cases =
  List.map
    (fun be -> ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_corba, be, None))
    backends
  @ List.map
      (fun enc ->
        ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_corba, Driver.Back_iiop, Some enc))
      Encoding.[ msgpack; cbor ]
  @ [
      ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_corba_len, Driver.Back_iiop, None);
      ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_fluke, Driver.Back_fluke, None);
      ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_rpcgen, Driver.Back_oncrpc, None);
      ("probe.x", Driver.Idl_onc, probe_x, Driver.Pres_rpcgen, Driver.Back_oncrpc, None);
      ("probe.x", Driver.Idl_onc, probe_x, Driver.Pres_rpcgen, Driver.Back_oncrpc, Some Encoding.msgpack);
      ("probe.x", Driver.Idl_onc, probe_x, Driver.Pres_rpcgen, Driver.Back_oncrpc, Some Encoding.cbor);
      ("device.defs", Driver.Idl_mig, probe_defs, Driver.Pres_mig, Driver.Back_mach3, None);
    ]

(* (file, idl, source, presentation, source backend, destination) *)
let relay_cases =
  List.map
    (fun (src, dst) -> ("probe.idl", Driver.Idl_corba, probe_idl, Driver.Pres_corba, src, dst))
    Driver.
      [
        (Back_oncrpc, Back_oncrpc);
        (Back_iiop, Back_oncrpc);
        (Back_iiop, Back_iiop);
        (Back_oncrpc, Back_iiop);
        (Back_iiop, Back_fluke);
        (Back_fluke, Back_mach3);
        (Back_mach3, Back_fluke);
      ]
  @ [ ("probe.x", Driver.Idl_onc, probe_x, Driver.Pres_rpcgen, Driver.Back_oncrpc, Driver.Back_oncrpc) ]

let render ~file ~idl ~source ~pres ~backend ?encoding mode =
  Plan_dump.render ~idl ~pres ~backend ~interface:None ~op:None ~mode ?encoding
    ~file ~source ()

let probe_dump mode =
  String.concat ""
    (List.map
       (fun (file, idl, source, pres, backend, encoding) ->
         render ~file ~idl ~source ~pres ~backend ?encoding mode)
       probe_cases)

let probe_relays () =
  String.concat ""
    (List.map
       (fun (file, idl, source, pres, backend, dst) ->
         render ~file ~idl ~source ~pres ~backend (Plan_dump.Forward dst))
       relay_cases)

let suite =
  [
    ( "goldens",
      [
        test "the benchmark's 36 stub plans match stub_plans.golden" (fun () ->
            golden "stub_plans.golden" (stub_plans ()));
        test "dump-plan of the probe matches dump_probe_encode.golden"
          (fun () -> golden "dump_probe_encode.golden" (probe_dump Plan_dump.Marshal));
        test "dump-plan --decode of the probe matches dump_probe_decode.golden"
          (fun () -> golden "dump_probe_decode.golden" (probe_dump Plan_dump.Unmarshal));
        test "dump-plan --forward of the probe matches dump_probe_forward.golden"
          (fun () -> golden "dump_probe_forward.golden" (probe_relays ()));
      ] );
  ]
