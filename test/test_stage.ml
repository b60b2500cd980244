(* Differential coverage for the tier-1 staged encoder (Plan_stage and
   the tiered closures in Stub_opt).  Decoding has a single tier; the
   decode checks here pin it against the rpcgen-style engine.

   For >= 500 random (MINT, PRES) cases per paper encoding:

   1. every subroutine-free plan has a flat-closure form, and the
      staged encoder produces bytes identical to the tier-0 plan
      executor and the rpcgen-style engine;
   2. the decoder recovers the encoded value (Value.equal) and consumes
      the whole message, and Stub_naive decodes the same value;
   3. truncated prefixes and a corrupted byte keep the decoder and
      Stub_naive in agreement: both fail (Short_buffer / Decode_error)
      or both succeed on the same value.

   Unit tests pin the promotion machinery itself: the per-fingerprint
   hotness counter promotes an encoder exactly at the configured
   threshold (the first N calls run interpreted, every later call
   staged, bytes unchanged across the boundary); a threshold of 1
   promotes on the very first call; decoders never touch the tier
   counters; recursive plans decline staging, are counted under
   stage.fallbacks, and still marshal correctly at tier 0; and a serve
   workload driven across a mid-run promotion returns every pooled
   buffer. *)

let rng = Random.State.make [| 0x57a6ed |]

(* The stage counters are private to Stub_opt; read them back by name
   from the registry snapshot. *)
let counter name =
  List.fold_left
    (fun acc s ->
      match s with Obs.Scounter (n, v) when n = name -> v | _ -> acc)
    0 (Obs.snapshot ())

let tiers () =
  ( counter "stage.interp_calls",
    counter "stage.promotions",
    counter "stage.staged_calls" )

let encode_to (e : Stub_opt.encoder) v =
  let buf = Mbuf.create 64 in
  e buf [| v |];
  Bytes.to_string (Mbuf.contents buf)

type outcome = Ok_value of Value.t | Failed

let run_dec (d : Stub_opt.decoder) (wire : bytes) : outcome =
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

let dplan_droots (c : Test_engines.case) =
  [ Dplan_compile.Dvalue (c.Test_engines.idx, c.Test_engines.pres) ]

(* -- staged encode = tier 0 = naive; decoder = naive, good and bad input *)

let staged_prop enc (c : Test_engines.case) =
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v =
    Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres
  in
  let plan = Plan_cache.plan ~enc ~mint ~named (Test_engines.roots_of c) in
  let staged =
    match Stub_opt.staged_encoder_of_plan ~enc plan with
    | Some e -> e
    | None ->
        QCheck.Test.fail_reportf
          "subroutine-free plan has no flat closure on %s" c.Test_engines.label
  in
  let tier0 = Stub_opt.encoder_of_plan ~enc plan in
  let b1 = encode_to staged v and b0 = encode_to tier0 v in
  if b1 <> b0 then
    QCheck.Test.fail_reportf "staged/tier-0 bytes differ on %s:@.%s@.%s"
      c.Test_engines.label (Test_engines.hex b1) (Test_engines.hex b0);
  let naive =
    Test_engines.encode_with
      (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
      enc c (Test_engines.roots_of c) v
  in
  if b1 <> naive then
    QCheck.Test.fail_reportf "staged/naive bytes differ on %s:@.%s@.%s"
      c.Test_engines.label (Test_engines.hex b1) (Test_engines.hex naive);
  let dplan = Plan_cache.dplan ~enc ~mint ~named (dplan_droots c) in
  let dec = Stub_opt.decoder_of_dplan ~enc dplan in
  let naive =
    Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc ~mint
      ~named (Test_engines.droots_of c)
  in
  let wire = Bytes.of_string b1 in
  (* well-formed input: the decode recovers the value and consumes the
     whole message, and Stub_naive agrees *)
  let r = Mbuf.reader_of_bytes wire in
  (match dec r with
  | [| v' |] ->
      if not (Value.equal v v') then
        QCheck.Test.fail_reportf "decode mismatch on %s:@.%a@.%a"
          c.Test_engines.label Value.pp v Value.pp v';
      if Mbuf.remaining r <> 0 then
        QCheck.Test.fail_reportf "decode left trailing bytes on %s"
          c.Test_engines.label
  | _ -> QCheck.Test.fail_reportf "wrong arity on %s" c.Test_engines.label);
  (match run_dec naive wire with
  | Ok_value v' when Value.equal v v' -> ()
  | out ->
      QCheck.Test.fail_reportf "naive decode disagrees on %s: %a"
        c.Test_engines.label pp_outcome out);
  (* truncation parity with the rpcgen-style engine *)
  let n = Bytes.length wire in
  List.iter
    (fun cut ->
      if cut >= 0 && cut < n then begin
        let prefix = Bytes.sub wire 0 cut in
        let a = run_dec dec prefix and b = run_dec naive prefix in
        if not (same_outcome a b) then
          QCheck.Test.fail_reportf
            "truncation at %d/%d disagrees on %s: decoder %a, naive %a" cut n
            c.Test_engines.label pp_outcome a pp_outcome b
      end)
    [ n - 1; n / 2; (if n > 0 then Random.State.int rng n else -1) ];
  (* corruption parity: a flipped bit lands on discriminators, bools,
     counts, ... and must fail (or not) identically in both engines *)
  if n > 0 then begin
    let corrupt = Bytes.copy wire in
    let at = Random.State.int rng n in
    Bytes.set corrupt at
      (Char.chr
         (Char.code (Bytes.get corrupt at) lxor (1 lsl Random.State.int rng 8)));
    let a = run_dec dec corrupt and b = run_dec naive corrupt in
    if not (same_outcome a b) then
      QCheck.Test.fail_reportf
        "corrupt byte %d disagrees on %s: decoder %a, naive %a" at
        c.Test_engines.label pp_outcome a pp_outcome b
  end;
  true

let qtest name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name Test_engines.arbitrary_case prop)

let property_tests =
  List.map
    (fun enc ->
      qtest
        (enc.Encoding.name ^ ": staged encode and the decoder agree with naive")
        (staged_prop enc))
    Encoding.all

(* -- promotion machinery --------------------------------------------- *)

(* Each deterministic test below picks a threshold used nowhere else in
   the suite: the threshold is part of the stage fingerprint and so of
   the closure-cache key, giving the test a fresh hotness counter no
   matter what ran before it. *)
let with_stage ~threshold f =
  Fun.protect ~finally:Opt_config.clear_stage_override (fun () ->
      Opt_config.set_stage_enabled true;
      Opt_config.set_stage_threshold threshold;
      f ())

let case_for seed = Test_engines.gen_case (Random.State.make [| seed |])

let promotion_encode_test () =
  with_stage ~threshold:6 @@ fun () ->
  let c = case_for 0x9707 in
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v =
    Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres
  in
  let e =
    Stub_opt.compile_encoder ~enc:Encoding.xdr ~mint ~named
      (Test_engines.roots_of c)
  in
  let i0, p0, s0 = tiers () in
  let expect = encode_to e v in
  (* calls 2..5: below the threshold, still interpreted *)
  for _ = 2 to 5 do
    Alcotest.(check string) "bytes stable while interpreted" expect
      (encode_to e v)
  done;
  let i1, p1, s1 = tiers () in
  Alcotest.(check int) "five interpreted calls" (i0 + 5) i1;
  Alcotest.(check int) "no promotion below the threshold" p0 p1;
  Alcotest.(check int) "no staged calls below the threshold" s0 s1;
  (* call 6: runs interpreted and promotes *)
  Alcotest.(check string) "bytes stable at the threshold" expect
    (encode_to e v);
  let i2, p2, s2 = tiers () in
  Alcotest.(check int) "threshold call still interpreted" (i0 + 6) i2;
  Alcotest.(check int) "promotion exactly at the threshold" (p0 + 1) p2;
  Alcotest.(check int) "threshold call not yet staged" s0 s2;
  (* calls 7..9: staged, bytes unchanged across the boundary *)
  for _ = 7 to 9 do
    Alcotest.(check string) "bytes stable after promotion" expect
      (encode_to e v)
  done;
  let i3, p3, s3 = tiers () in
  Alcotest.(check int) "interpreted count frozen after promotion" (i0 + 6) i3;
  Alcotest.(check int) "exactly one promotion" (p0 + 1) p3;
  Alcotest.(check int) "three staged calls" (s0 + 3) s3

let threshold_one_test () =
  with_stage ~threshold:1 @@ fun () ->
  let c = case_for 0x1707 in
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v =
    Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres
  in
  let e =
    Stub_opt.compile_encoder ~enc:Encoding.cdr ~mint ~named
      (Test_engines.roots_of c)
  in
  let i0, p0, s0 = tiers () in
  let expect = encode_to e v in
  let i1, p1, s1 = tiers () in
  Alcotest.(check int) "first call interpreted" (i0 + 1) i1;
  Alcotest.(check int) "first call promotes" (p0 + 1) p1;
  Alcotest.(check int) "first call not staged" s0 s1;
  Alcotest.(check string) "bytes stable across promotion" expect
    (encode_to e v);
  let i2, p2, s2 = tiers () in
  Alcotest.(check int) "second call not interpreted" (i0 + 1) i2;
  Alcotest.(check int) "still one promotion" (p0 + 1) p2;
  Alcotest.(check int) "second call staged" (s0 + 1) s2

(* Decoders have one tier: however often a cached decoder runs, it
   decodes the same value as Stub_naive and never touches the tier
   counters. *)
let decoder_one_tier_test () =
  with_stage ~threshold:7 @@ fun () ->
  let c = case_for 0x3707 in
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v =
    Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres
  in
  let enc = Encoding.mach3 in
  (* encode through the plan executor directly so the encoder side's
     own tier bookkeeping stays out of the counters under test *)
  let plan = Plan_cache.plan ~enc ~mint ~named (Test_engines.roots_of c) in
  let wire = Bytes.of_string (encode_to (Stub_opt.encoder_of_plan ~enc plan) v) in
  let d =
    Stub_opt.compile_decoder ~enc ~mint ~named (Test_engines.droots_of c)
  in
  let naive =
    Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc ~mint
      ~named (Test_engines.droots_of c)
  in
  let t0 = tiers () in
  for _ = 1 to 10 do
    match (d (Mbuf.reader_of_bytes wire), naive (Mbuf.reader_of_bytes wire)) with
    | [| v' |], [| vn |] ->
        Alcotest.(check bool) "decoded value stable" true (Value.equal v v');
        Alcotest.(check bool) "decoder = naive" true (Value.equal vn v')
    | _ -> Alcotest.fail "wrong arity"
  done;
  Alcotest.(check bool) "no tier counter moved" true (t0 = tiers ());
  let n = Bytes.length wire in
  List.iter
    (fun cut ->
      let prefix = Bytes.sub wire 0 cut in
      Alcotest.(check bool)
        (Printf.sprintf "truncation at %d/%d: decoder = naive" cut n)
        true
        (same_outcome (run_dec d prefix) (run_dec naive prefix)))
    [ 0; n / 2; n - 1 ]

(* -- fallback: recursive plans stay at tier 0 ------------------------ *)

let fallback_test () =
  with_stage ~threshold:9 @@ fun () ->
  let c = Test_engines.linked_list_case () in
  let mint = c.Test_engines.mint and named = c.Test_engines.named in
  let v = Test_engines.list_value 7 in
  let enc = Encoding.xdr in
  let plan = Plan_cache.plan ~enc ~mint ~named (Test_engines.roots_of c) in
  Alcotest.(check bool) "recursive plan is unstageable" false
    (Plan_stage.stageable plan);
  (match Stub_opt.staged_encoder_of_plan ~enc plan with
  | None -> ()
  | Some _ -> Alcotest.fail "staged encoder built for a recursive plan");
  (* the cached encoder entry point counts the declined plan ... *)
  let f0 = counter "stage.fallbacks" in
  let e =
    Stub_opt.compile_encoder ~enc ~mint ~named (Test_engines.roots_of c)
  in
  Alcotest.(check int) "encoder fallback counted" (f0 + 1)
    (counter "stage.fallbacks");
  let d =
    Stub_opt.compile_decoder ~enc ~mint ~named (Test_engines.droots_of c)
  in
  Alcotest.(check int) "decoders decline nothing" (f0 + 1)
    (counter "stage.fallbacks");
  (* ... and the fallback encoder runs correctly, entirely at tier 0,
     into the one decoder *)
  let _, p0, s0 = tiers () in
  let wire = encode_to e v in
  let naive =
    Test_engines.encode_with
      (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
      enc c (Test_engines.roots_of c) v
  in
  Alcotest.(check string) "fallback bytes = naive" naive wire;
  (match d (Mbuf.reader_of_bytes (Bytes.of_string wire)) with
  | [| v' |] ->
      Alcotest.(check bool) "fallback roundtrip" true (Value.equal v v')
  | _ -> Alcotest.fail "wrong arity");
  let naive_dec =
    Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc ~mint
      ~named (Test_engines.droots_of c)
  in
  let wire = Bytes.of_string wire in
  List.iter
    (fun cut ->
      let prefix = Bytes.sub wire 0 cut in
      Alcotest.(check bool)
        (Printf.sprintf "recursive truncation at %d: decoder = naive" cut)
        true
        (same_outcome (run_dec d prefix) (run_dec naive_dec prefix)))
    [ Bytes.length wire / 2; Bytes.length wire - 1 ];
  let _, p1, s1 = tiers () in
  Alcotest.(check int) "no promotion on the fallback path" p0 p1;
  Alcotest.(check int) "no staged calls on the fallback path" s0 s1

(* -- pool hygiene across a mid-run promotion ------------------------- *)

let serve_pool_test () =
  with_stage ~threshold:3 @@ fun () ->
  let before = Mbuf.pool_stats () in
  let _, p0, s0 = tiers () in
  let sp = Rpc_serve.run_workload ~requests_per_conn:25 ~conns:4 () in
  Alcotest.(check bool) "every reply byte-identical" true
    sp.Rpc_serve.sp_diff_ok;
  let _, p1, s1 = tiers () in
  Alcotest.(check bool) "promotion happened mid-run" true (p1 > p0);
  Alcotest.(check bool) "staged closures served requests" true (s1 > s0);
  let after = Mbuf.pool_stats () in
  Alcotest.(check int) "writers all returned to the pool"
    before.Mbuf.writers_outstanding after.Mbuf.writers_outstanding;
  Alcotest.(check int) "readers all returned to the pool"
    before.Mbuf.readers_outstanding after.Mbuf.readers_outstanding

let unit_tests =
  [
    Alcotest.test_case "encoder promotes exactly at the threshold" `Quick
      promotion_encode_test;
    Alcotest.test_case "threshold 1 promotes on the first call" `Quick
      threshold_one_test;
    Alcotest.test_case "decoder has one tier and agrees with naive" `Quick
      decoder_one_tier_test;
    Alcotest.test_case "recursive plans fall back to tier 0" `Quick
      fallback_test;
    Alcotest.test_case "staged serve run returns every pooled buffer" `Quick
      serve_pool_test;
  ]

let suite =
  [ ("stage:properties", property_tests); ("stage:promotion", unit_tests) ]
