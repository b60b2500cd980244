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

let relay_outcome (fwd : Stub_forward.forward) (wire : bytes) : outcome =
  let r = Mbuf.reader_of_bytes wire in
  let w = Mbuf.acquire () in
  Fun.protect
    ~finally:(fun () -> Mbuf.release w)
    (fun () ->
      match fwd r w with
      | () -> Ok_relay (Bytes.to_string (Mbuf.contents w), Mbuf.remaining r)
      | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> Failed)

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
  Stub_forward.forward_plan ~src ~dst ~mint:c.Test_engines.mint
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
  (match relay_outcome base wire with
  | Failed ->
      QCheck.Test.fail_reportf "baseline failed well-formed input on %s"
        c.Test_engines.label
  | Ok_relay _ -> ());
  agree "relays" wire;
  (* truncation parity *)
  let n = Bytes.length wire in
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
  let config = { (Opt_config.default ()) with Opt_config.verify = true } in
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
            Stub_forward.forward_plan ~config ~src ~dst ~mint ~named droots roots
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
    Stub_forward.forward_plan ~src:Encoding.msgpack ~dst:Encoding.cbor ~mint ~named
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
        ] );
  ]
