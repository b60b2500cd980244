(* Differential coverage for fused forward relaying (Fplan /
   Fplan_compile / Stub_forward) and the gateway built on it.

   For >= 500 random (MINT, PRES) cases per ordered encoding pair:

   1. executing the fused forward plan over an encoded message yields
      destination bytes identical to decode-then-reencode, consumes
      exactly the same number of source bytes, and the plan passes the
      independent forward verifier ({!Plan_verify.check_fplan});
   2. truncated prefixes and a corrupted byte keep the fused relay and
      the materializing baseline in agreement: both fail
      (Short_buffer / Decode_error) or both produce identical bytes.

   Unit tests drive the gateway end-to-end (fused and forced-fallback
   relaying produce byte-identical client replies) and pin pooled-
   writer balance across a gateway run. *)

let rng = Random.State.make [| 0xf0bead |]
let mut_rng = Random.State.make [| 0x0bf00d |]

(* -- relay outcomes -------------------------------------------------- *)

(* What one relay engine did to one wire image: the destination bytes
   and the number of source bytes consumed, or a typed failure. *)
type outcome = Ok_relay of string * int | Failed

(* [head] header bytes lead the writer, its origin after them: the
   relay's bytes are the rest *)
let relay_into ?(head = 0) (fwd : Stub_forward.forward) r w : outcome =
  Mbuf.ensure w head;
  Mbuf.fill_zero w 0 head;
  Mbuf.advance w head;
  Mbuf.set_origin w;
  match fwd r w with
  | () ->
      let out = Bytes.to_string (Mbuf.contents w) in
      Ok_relay (String.sub out head (String.length out - head), Mbuf.remaining r)
  | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> Failed

let relay_outcome (fwd : Stub_forward.forward) (wire : bytes) : outcome =
  let w = Mbuf.acquire () in
  Fun.protect
    ~finally:(fun () -> Mbuf.release w)
    (fun () -> relay_into fwd (Mbuf.reader_of_bytes wire) w)

let relay_outcome_r (fwd : Stub_forward.forward) r : outcome =
  let w = Mbuf.acquire () in
  Fun.protect ~finally:(fun () -> Mbuf.release w) (fun () -> relay_into fwd r w)

(* The scatter-gather settings for [f], restored after it. *)
let with_sg ~on ~threshold f =
  let on0 = Mbuf.sg_enabled () and t0 = Mbuf.borrow_threshold () in
  Mbuf.set_sg_enabled on;
  Mbuf.set_borrow_threshold threshold;
  Fun.protect f ~finally:(fun () ->
      Mbuf.set_sg_enabled on0;
      Mbuf.set_borrow_threshold t0)

let same_outcome a b =
  match (a, b) with
  | Ok_relay (x, rx), Ok_relay (y, ry) -> x = y && rx = ry
  | Failed, Failed -> true
  | Ok_relay _, Failed | Failed, Ok_relay _ -> false

let pp_outcome = function
  | Ok_relay (s, rem) ->
      Printf.sprintf "ok %s (rem %d)" (Test_engines.hex s) rem
  | Failed -> "failed"

let baseline_relay ~src ~dst (c : Test_engines.case) : Stub_forward.forward =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let dec =
    Stub_opt.compile_decoder ~enc:src ~mint ~named (Test_engines.droots_of c)
  in
  let re =
    Stub_opt.compile_encoder ~enc:dst ~mint ~named (Test_engines.roots_of c)
  in
  fun r w -> re w (dec r)

let fused_plan ~src ~dst (c : Test_engines.case) =
  Fplan_compile.fuse ~src ~dst ~mint:c.Test_engines.mint
    ~named:c.Test_engines.named
    (List.map Stub_opt.to_dplan_droot (Test_engines.droots_of c))
    (Test_engines.roots_of c)

(* -- the differential property per encoding pair --------------------- *)

let forward_prop (src, dst) (c : Test_engines.case) =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v = Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres in
  let wire =
    Bytes.of_string
      (Test_engines.encode_with Test_engines.opt_encoder src c
         (Test_engines.roots_of c) v)
  in
  let plan = fused_plan ~src ~dst c in
  (match Plan_verify.check_fplan plan with
  | Ok () -> ()
  | Error e ->
      QCheck.Test.fail_reportf "verifier rejected fused plan for %s: %s"
        c.Test_engines.label
        (Plan_verify.error_to_string e));
  let base = baseline_relay ~src ~dst c in
  let fused = Stub_forward.forward_of_plan plan in
  let agree what image =
    let b = relay_outcome base image and f = relay_outcome fused image in
    if not (same_outcome b f) then
      QCheck.Test.fail_reportf "%s disagree on %s:@.baseline %s@.fused    %s"
        what c.Test_engines.label (pp_outcome b) (pp_outcome f)
  in
  (* the well-formed message must relay, identically *)
  let expect = relay_outcome base wire in
  if expect = Failed then
    QCheck.Test.fail_reportf "baseline failed well-formed input on %s"
      c.Test_engines.label;
  agree "relays" wire;
  (* and so from a source cut into segments, into a dirty reused writer
     behind a header, and with scatter-gather off or borrowing every
     byte it can *)
  let again what got =
    if not (same_outcome expect got) then
      QCheck.Test.fail_reportf "%s on %s:@.baseline %s@.fused    %s" what
        c.Test_engines.label (pp_outcome expect) (pp_outcome got)
  in
  let n = Bytes.length wire in
  let cuts = List.init (Random.State.int mut_rng 8) (fun _ -> 1 + Random.State.int mut_rng (max 1 n)) in
  again "segmented source" (relay_outcome_r fused (Test_decplan.segmented wire cuts));
  let head = List.nth [ 0; 3; 5 ] (Random.State.int mut_rng 3) in
  let w = Mbuf.acquire () in
  Mbuf.ensure w 256;
  Mbuf.fill_zero w 0 256;
  Bytes.iteri (fun i c -> if i < 256 then Mbuf.set_u8 w i (Char.code c lxor 0xa5)) wire;
  Mbuf.advance w 256;
  Mbuf.reset w;
  again (Printf.sprintf "reused writer behind %d bytes" head)
    (Fun.protect ~finally:(fun () -> Mbuf.release w) (fun () ->
         relay_into ~head fused (Mbuf.reader_of_bytes wire) w));
  with_sg ~on:false ~threshold:512 (fun () -> again "scatter-gather off" (relay_outcome fused wire));
  with_sg ~on:true ~threshold:1 (fun () -> again "borrow threshold 1" (relay_outcome fused wire));
  (* truncation parity *)
  if n > 0 then agree "truncations" (Bytes.sub wire 0 (Random.State.int mut_rng n));
  (* corruption parity: flip one bit somewhere *)
  if n > 0 then begin
    let at = Random.State.int mut_rng n in
    let bit = Random.State.int mut_rng 8 in
    let bad = Bytes.copy wire in
    Bytes.set bad at
      (Char.chr (Char.code (Bytes.get bad at) lxor (1 lsl bit)));
    agree "corruptions" bad
  end;
  true

let pair_tests =
  List.concat_map
    (fun src ->
      List.map
        (fun dst ->
          let name =
            Printf.sprintf "forward %s->%s relay/parity" src.Encoding.name
              dst.Encoding.name
          in
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count:500 ~name Test_engines.arbitrary_case
               (forward_prop (src, dst))))
        Encoding.all)
    Encoding.all

(* -- the gateway, end to end ----------------------------------------- *)

let gateway_collect ~forward ~src ~dst ~payload ~bytes ~requests =
  let sim = Sim_core.create () in
  let gw = Rpc_gateway.create ~sim ~forward ~src ~dst () in
  let style =
    match src.Encoding.name with
    | "cdr" -> `Corba
    | "xdr" -> `Rpcgen
    | _ -> `Fluke
  in
  let pc = Paper_fixtures.bench_presc style in
  let ms = Paper_fixtures.request_spec pc ~op:(Paper_fixtures.op_of_payload payload) in
  Rpc_gateway.register gw ms ~iface:1 ~op:1;
  let vals = [| Paper_fixtures.payload payload ~bytes |] in
  let frame = Rpc_gateway.client_frame gw ms ~iface:1 ~op:1 ~seq:0 vals in
  let expect = Bytes.sub frame 16 (Bytes.length frame - 16) in
  let replies = Hashtbl.create 16 in
  let conn =
    Rpc_gateway.connect gw ~deliver:(fun data ->
        List.iter
          (fun (status, seq, pl) -> Hashtbl.replace replies seq (status, pl))
          (Rpc_serve.parse_replies data))
  in
  for seq = 0 to requests - 1 do
    let f = Bytes.copy frame in
    Bytes.set_int32_be f 12 (Int32.of_int seq);
    Sim_core.schedule sim ~delay:(float_of_int seq *. 50e-6) (fun () ->
        Rpc_gateway.send conn f)
  done;
  Sim_core.run sim;
  (replies, expect, Rpc_gateway.stats gw)

let gateway_roundtrip_test () =
  List.iter
    (fun (src, dst) ->
      let requests = 8 in
      let fused, expect, gst =
        gateway_collect ~forward:true ~src ~dst ~payload:`Dirents ~bytes:600
          ~requests
      in
      let fallback, _, _ =
        gateway_collect ~forward:false ~src ~dst ~payload:`Dirents ~bytes:600
          ~requests
      in
      Alcotest.(check int)
        (Printf.sprintf "%s->%s all replies arrive" src.Encoding.name
           dst.Encoding.name)
        requests (Hashtbl.length fused);
      Alcotest.(check int) "relay errors" 0 gst.Rpc_gateway.gs_relay_errors;
      Alcotest.(check int) "nothing pending" 0 gst.Rpc_gateway.gs_pending;
      for seq = 0 to requests - 1 do
        (match Hashtbl.find_opt fused seq with
        | Some (Rpc_serve.Sok, pl) ->
            (* double relay of an echo: the client gets its own payload
               bytes back *)
            if not (Bytes.equal pl expect) then
              Alcotest.failf "%s->%s seq %d: fused reply differs from request"
                src.Encoding.name dst.Encoding.name seq
        | Some _ -> Alcotest.failf "seq %d: not Sok" seq
        | None -> Alcotest.failf "seq %d: no reply" seq);
        match (Hashtbl.find_opt fused seq, Hashtbl.find_opt fallback seq) with
        | Some (_, a), Some (_, b) ->
            if not (Bytes.equal a b) then
              Alcotest.failf "%s->%s seq %d: fused and fallback replies differ"
                src.Encoding.name dst.Encoding.name seq
        | _ -> Alcotest.fail "missing fallback reply"
      done)
    [
      (Encoding.xdr, Encoding.xdr);
      (Encoding.cdr, Encoding.xdr);
      (Encoding.xdr, Encoding.cdr);
      (Encoding.cdr, Encoding.fluke);
    ]

(* -- pool balance across a gateway run --------------------------------- *)

let gateway_pool_test () =
  let before = Mbuf.pool_stats () in
  let requests = 30 in
  let replies, expect, gst =
    gateway_collect ~forward:true ~src:Encoding.cdr ~dst:Encoding.mach3
      ~payload:`Rects ~bytes:512 ~requests
  in
  Alcotest.(check int) "all replies arrive" requests (Hashtbl.length replies);
  Alcotest.(check int) "relay errors" 0 gst.Rpc_gateway.gs_relay_errors;
  Hashtbl.iter
    (fun seq (status, pl) ->
      if status <> Rpc_serve.Sok then Alcotest.failf "seq %d not Sok" seq;
      if not (Bytes.equal pl expect) then
        Alcotest.failf "seq %d: bytes changed across the run" seq)
    replies;
  let after = Mbuf.pool_stats () in
  Alcotest.(check int) "pooled writers outstanding unchanged"
    before.Mbuf.writers_outstanding after.Mbuf.writers_outstanding;
  Alcotest.(check int) "pooled readers outstanding unchanged"
    before.Mbuf.readers_outstanding after.Mbuf.readers_outstanding

(* -- a bool array inside a fixed array of structs ---------------------- *)

(* The element loop reserves its 5 source bytes (a char, then four packed
   bools) up front; the verifier must recognize that reservation as
   exact.  Runs with verification on in every lane. *)
let bool_array_reservation_test () =
  let idl =
    "struct s1 { char c; }; struct s2 { s1 a; boolean b[4]; };\n\
     typedef s2 s2arr[3]; interface T { void f(in s2arr x); };"
  in
  let ms =
    Paper_fixtures.request_spec
      (Presgen_corba.generate (Corba_parser.parse ~file:"s2.idl" idl) [ "T" ])
      ~op:"f"
  in
  let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
  let roots = ms.Paper_fixtures.ms_roots in
  let droots = List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots in
  let elem c bs =
    Value.Vstruct
      [| Value.Vstruct [| Value.Vchar c |]; Value.Varray (Array.map (fun b -> Value.Vbool b) bs) |]
  in
  let v =
    Value.Varray
      [|
        elem 'a' [| true; false; true; true |];
        elem 'b' [| false; false; false; true |];
        elem 'c' [| true; true; true; false |];
      |]
  in
  let encode enc =
    let w = Mbuf.create 64 in
    (Stub_opt.compile_encoder ~enc ~mint ~named roots) w [| v |];
    Mbuf.contents w
  in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let plan =
            Fplan_compile.fuse ~src ~dst ~mint ~named droots roots
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s->%s plan verifies" src.Encoding.name dst.Encoding.name)
            true
            (Plan_verify.check_fplan plan = Ok ());
          let w = Mbuf.create 64 in
          Stub_forward.forward_of_plan plan (Mbuf.reader_of_bytes (encode src)) w;
          Alcotest.(check bool)
            (Printf.sprintf "%s->%s relay = direct encode" src.Encoding.name
               dst.Encoding.name)
            true
            (Bytes.equal (Mbuf.contents w) (encode dst)))
        [ Encoding.cdr; Encoding.xdr; Encoding.mach3; Encoding.fluke ])
    [ Encoding.cdr; Encoding.fluke ]

(* A msgpack -> cbor relay of rects does not fuse: it materializes the
   rects, as integer rows, and re-encodes them as Stub_naive encodes the
   rects under cbor. *)
let rects_relay_test () =
  let ms = Paper_fixtures.request_spec (Paper_fixtures.bench_presc `Fluke) ~op:"send_rects" in
  let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
  let roots = ms.Paper_fixtures.ms_roots and droots = ms.Paper_fixtures.ms_droots in
  let rects = [| Paper_fixtures.payload `Rects ~bytes:800 |] in
  let naive enc =
    let w = Mbuf.create 256 in
    Stub_naive.compile_encoder ~enc ~mint ~named roots w rects;
    Mbuf.contents w
  in
  let plan =
    Fplan_compile.fuse ~src:Encoding.msgpack ~dst:Encoding.cbor ~mint ~named
      (List.map Stub_opt.to_dplan_droot droots) roots
  in
  Alcotest.(check bool) "the relay materializes" true
    (List.exists (function Fplan.F_materialize _ -> true | _ -> false) plan.Fplan.f_ops);
  let decoded =
    Stub_opt.compile_decoder ~enc:Encoding.msgpack ~mint ~named droots
      (Mbuf.reader_of_bytes (naive Encoding.msgpack))
  in
  Alcotest.(check bool) "as integer rows" true
    (match decoded with [| Value.Vint_rows _ as v |] -> Value.equal v rects.(0) | _ -> false);
  Alcotest.(check string) "relay = Stub_naive's cbor"
    (Test_engines.hex (Bytes.to_string (naive Encoding.cbor)))
    (match relay_outcome (Stub_forward.forward_of_plan plan) (naive Encoding.msgpack) with
    | Ok_relay (bytes, 0) -> Test_engines.hex bytes
    | o -> pp_outcome o)

(* A rect's 16 bytes are the same under xdr on both sides, so the
   element loop relays verbatim: a 64 KiB rects relay is one transfer,
   borrowed, and copies no payload byte. *)
let rects_counted_blit_test () =
  let out =
    Plan_dump.render ~idl:Driver.Idl_corba ~pres:Driver.Pres_rpcgen ~backend:Driver.Back_oncrpc
      ~interface:None ~op:(Some "send_rects") ~mode:(Plan_dump.Forward Driver.Back_oncrpc)
      ~file:"bench.idl" ~source:Paper_fixtures.bench_idl ()
  in
  Alcotest.(check (list string)) "the loop's mode" [ "loop fwd[0]: verbatim" ]
    (List.filter (fun l -> String.length l > 8 && String.sub l 0 8 = "loop fwd") (String.split_on_char '\n' out));
  let ms = Paper_fixtures.request_spec (Paper_fixtures.bench_presc `Rpcgen) ~op:"send_rects" in
  let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
  let wire = Mbuf.create 256 in
  Stub_opt.compile_encoder ~enc:Encoding.xdr ~mint ~named ms.Paper_fixtures.ms_roots wire
    [| Paper_fixtures.payload `Rects ~bytes:65536 |];
  let wire = Mbuf.contents wire in
  let fwd =
    Stub_forward.compile_forward ~src:Encoding.xdr ~dst:Encoding.xdr ~mint ~named
      (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots) ms.Paper_fixtures.ms_roots
  in
  let w = Mbuf.create 64 in
  fwd (Mbuf.reader_of_bytes wire) w;
  let st = Mbuf.stats w in
  Alcotest.(check string) "relayed bytes" (Bytes.to_string wire) (Bytes.to_string (Mbuf.contents w));
  Alcotest.(check (pair int int)) "one borrow, no payload byte copied" (1, 0)
    (st.Mbuf.borrows, st.Mbuf.bytes_copied)

(* The three dirents relays the gateway runs, and a cdr -> cdr loop
   whose body ends in a run the scan cannot fold into the string before
   it (a char after the string's NUL).  A source with every
   name's NUL and pad byte non-zero relays as decode-then-reencode does,
   which writes zeros there (a verbatim loop moves such a run in
   window); cut at every byte, the relay fails exactly when the baseline
   fails. *)
let scanned_relays_test () =
  let names = Array.init 12 (fun i -> Printf.sprintf "entry%02d%s" i (String.make (i mod 5) 'x')) in
  let dirent i =
    Value.Vstruct
      [| Value.Vstring names.(i);
         Value.Vstruct [| Value.Vint_array (Array.make 30 i); Value.Vbytes (Bytes.make 16 'x') |] |]
  and tailed i = Value.Vstruct [| Value.Vstring names.(i); Value.Vchar 'c' |] in
  let tailed_spec =
    Paper_fixtures.request_spec
      (Presgen_corba.generate
         (Corba_parser.parse ~file:"g.idl"
            "struct g { string name; char c; }; typedef sequence<g> gs;\n\
             interface T { void f(in gs x); };")
         [ "T" ])
      ~op:"f"
  in
  List.iter
    (fun (src, dst, ms, elem) ->
      let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
      let w = Mbuf.create 256 in
      Stub_opt.compile_encoder ~enc:src ~mint ~named ms.Paper_fixtures.ms_roots w
        [| Value.Varray (Array.init 12 elem) |];
      let wire = Mbuf.contents w in
      (* each name's NUL and pad: the bytes after it up to a multiple of 4 *)
      let dirty = Bytes.copy wire in
      Array.iter
        (fun name ->
          let s = Bytes.to_string wire and k = String.length name in
          let rec find i = if String.sub s i k = name then i + k else find (i + 1) in
          let e = find 0 in
          for j = e to ((e + 3) land lnot 3) - 1 do
            Bytes.set dirty j '\x5a'
          done)
        names;
      let label = src.Encoding.name ^ "->" ^ dst.Encoding.name in
      let base =
        let dec = Stub_opt.compile_decoder ~enc:src ~mint ~named ms.Paper_fixtures.ms_droots in
        let re = Stub_opt.compile_encoder ~enc:dst ~mint ~named ms.Paper_fixtures.ms_roots in
        fun r w -> re w (dec r)
      in
      let fused =
        Stub_forward.compile_forward ~src ~dst ~mint ~named
          (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots) ms.Paper_fixtures.ms_roots
      in
      Alcotest.(check bool) (label ^ ": the pads were zero") false (Bytes.equal wire dirty);
      List.iter
        (fun image ->
          Alcotest.(check string) (label ^ " relay") (pp_outcome (relay_outcome base image))
            (pp_outcome (relay_outcome fused image)))
        [ wire; dirty ];
      for cut = 0 to Bytes.length dirty - 1 do
        let image = Bytes.sub dirty 0 cut in
        if not (same_outcome (relay_outcome base image) (relay_outcome fused image)) then
          Alcotest.failf "%s cut at %d: baseline %s, fused %s" label cut
            (pp_outcome (relay_outcome base image)) (pp_outcome (relay_outcome fused image))
      done)
    (List.map
       (fun (src, dst) ->
         let style = match src.Encoding.name with "cdr" -> `Corba | _ -> `Rpcgen in
         (src, dst, Paper_fixtures.request_spec (Paper_fixtures.bench_presc style) ~op:"send_dirents", dirent))
       Encoding.[ (xdr, xdr); (cdr, xdr); (xdr, cdr) ]
    @ [ (Encoding.cdr, Encoding.cdr, tailed_spec, tailed) ])

let suite =
  [
    ( "forward",
      pair_tests
      @ [
          Alcotest.test_case "bool array reservation verifies" `Quick
            bool_array_reservation_test;
          Alcotest.test_case "msgpack->cbor rects relay from rows" `Quick rects_relay_test;
          Alcotest.test_case "gateway roundtrip fused vs fallback" `Quick
            gateway_roundtrip_test;
          Alcotest.test_case "pool balance across a gateway run" `Quick
            gateway_pool_test;
          Alcotest.test_case "xdr->xdr rects relay is one counted blit" `Quick
            rects_counted_blit_test;
          Alcotest.test_case "scanned relays: non-zero pads, every cut" `Quick scanned_relays_test;
        ] );
  ]
