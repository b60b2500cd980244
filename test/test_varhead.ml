(* Boundary-value coverage for the value-dependent wire formats.

   The msgpack and cbor codecs pick their header width from the value,
   so every width transition is a potential off-by-one: a value encoded
   one byte wider than canonical must be rejected on parse, and a value
   at the last width must not spill into the next.  Each transition is
   pinned here byte-for-byte through the shared {!Codec} mapping (the
   single Value.t <-> varcodec bridge every engine tier uses), then
   round-tripped, then truncated inside the header to prove the typed
   failure is the same for the plan executor and the naive engine.

   The last group pins the verifier's rejection of an under-reserved
   variable header — the new corruption class the Put_varhead op adds:
   an emit whose worst case was never ensured. *)

let test name f = Alcotest.test_case name `Quick f

let hex b =
  String.concat ""
    (List.map (Printf.sprintf "%02x")
       (List.map Char.code (List.of_seq (String.to_seq (Bytes.to_string b)))))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let vcc_of (enc : Encoding.t) =
  match enc.Encoding.var with
  | Some v -> v
  | None -> Alcotest.fail (enc.Encoding.name ^ " has no varcodec")

let i32 = Encoding.Kint { bits = 32; signed = true }
let u32 = Encoding.Kint { bits = 32; signed = false }

(* emit one scalar through the shared mapping and return its hex *)
let emit_var enc kind v =
  let buf = Mbuf.create 16 in
  Codec.write_var (vcc_of enc) ~check:true kind buf v;
  Mbuf.contents buf

let emit_len enc lk n =
  let buf = Mbuf.create 16 in
  Codec.write_vlen (vcc_of enc) ~check:true lk buf n;
  Mbuf.contents buf

(* canonical image pinned, round trip equal, whole image consumed, and
   every proper prefix (truncation inside the header) raises the typed
   short-buffer error *)
let pin_scalar enc kind v expect () =
  let img = emit_var enc kind v in
  Alcotest.(check string) "canonical image" expect (hex img);
  let r = Mbuf.reader_of_bytes img in
  let got = Codec.read_var (vcc_of enc) kind r in
  if not (Value.equal got v) then
    Alcotest.failf "round trip: wrote %a, read %a" Value.pp v Value.pp got;
  Alcotest.(check int) "whole image consumed" 0 (Mbuf.remaining r);
  for cut = 0 to Bytes.length img - 1 do
    match Codec.read_var (vcc_of enc) kind (Mbuf.reader_of_bytes ~len:cut img)
    with
    | (_ : Value.t) ->
        Alcotest.failf "accepted a header truncated at %d/%d bytes" cut
          (Bytes.length img)
    | exception Mbuf.Short_buffer -> ()
  done

let pin_len enc lk n expect () =
  let img = emit_len enc lk n in
  Alcotest.(check string) "canonical image" expect (hex img);
  let r = Mbuf.reader_of_bytes img in
  Alcotest.(check int) "round trip" n (Codec.read_vlen (vcc_of enc) lk r);
  Alcotest.(check int) "whole image consumed" 0 (Mbuf.remaining r);
  for cut = 0 to Bytes.length img - 1 do
    match Codec.read_vlen (vcc_of enc) lk (Mbuf.reader_of_bytes ~len:cut img)
    with
    | (_ : int) ->
        Alcotest.failf "accepted a header truncated at %d/%d bytes" cut
          (Bytes.length img)
    | exception Mbuf.Short_buffer -> ()
  done

let vi n = Value.Vint n

(* -- msgpack: every width transition ---------------------------------- *)

let msgpack_int_tests =
  List.map
    (fun (v, expect) ->
      test
        (Printf.sprintf "msgpack int %d -> %s" v expect)
        (pin_scalar Encoding.msgpack i32 (vi v) expect))
    [
      (0, "00"); (127, "7f"); (128, "cc80"); (255, "ccff"); (256, "cd0100");
      (65535, "cdffff"); (65536, "ce00010000");
      (-32, "e0"); (-33, "d0df"); (-128, "d080"); (-129, "d1ff7f");
      (-32768, "d18000"); (-32769, "d2ffff7fff");
    ]

let msgpack_len_tests =
  List.map
    (fun (lk, lname, n, expect) ->
      test
        (Printf.sprintf "msgpack %s len %d -> %s" lname n expect)
        (pin_len Encoding.msgpack lk n expect))
    [
      (Encoding.Lstr, "fixstr", 31, "bf");
      (Encoding.Lstr, "str8", 32, "d920");
      (Encoding.Lstr, "str8", 255, "d9ff");
      (Encoding.Lstr, "str16", 256, "da0100");
      (Encoding.Lstr, "str16", 65535, "daffff");
      (Encoding.Lstr, "str32", 65536, "db00010000");
      (Encoding.Lbin, "bin8", 255, "c4ff");
      (Encoding.Lbin, "bin16", 256, "c50100");
      (Encoding.Lbin, "bin16", 65535, "c5ffff");
      (Encoding.Lbin, "bin32", 65536, "c600010000");
      (Encoding.Larr, "fixarray", 15, "9f");
      (Encoding.Larr, "array16", 16, "dc0010");
      (Encoding.Larr, "array16", 65535, "dcffff");
      (Encoding.Larr, "array32", 65536, "dd00010000");
    ]

(* -- cbor: 23/24, 255/256, 65535/65536 on every major type ------------ *)

let cbor_int_tests =
  List.map
    (fun (v, expect) ->
      test
        (Printf.sprintf "cbor int %d -> %s" v expect)
        (pin_scalar Encoding.cbor i32 (vi v) expect))
    [
      (0, "00"); (23, "17"); (24, "1818"); (255, "18ff"); (256, "190100");
      (65535, "19ffff"); (65536, "1a00010000");
      (-24, "37"); (-25, "3818"); (-256, "38ff"); (-257, "390100");
      (-65536, "39ffff"); (-65537, "3a00010000");
    ]

let cbor_len_tests =
  List.map
    (fun (lk, lname, n, expect) ->
      test
        (Printf.sprintf "cbor %s len %d -> %s" lname n expect)
        (pin_len Encoding.cbor lk n expect))
    [
      (Encoding.Lbin, "bytes", 23, "57");
      (Encoding.Lbin, "bytes", 24, "5818");
      (Encoding.Lbin, "bytes", 255, "58ff");
      (Encoding.Lbin, "bytes", 256, "590100");
      (Encoding.Lbin, "bytes", 65535, "59ffff");
      (Encoding.Lbin, "bytes", 65536, "5a00010000");
      (Encoding.Lstr, "text", 23, "77");
      (Encoding.Lstr, "text", 24, "7818");
      (Encoding.Lstr, "text", 255, "78ff");
      (Encoding.Lstr, "text", 256, "790100");
      (Encoding.Lstr, "text", 65535, "79ffff");
      (Encoding.Lstr, "text", 65536, "7a00010000");
      (Encoding.Larr, "array", 23, "97");
      (Encoding.Larr, "array", 24, "9818");
      (Encoding.Larr, "array", 255, "98ff");
      (Encoding.Larr, "array", 256, "990100");
      (Encoding.Larr, "array", 65535, "99ffff");
      (Encoding.Larr, "array", 65536, "9a00010000");
    ]

(* -- non-minimal headers are rejected on parse ------------------------ *)

let non_minimal_tests =
  List.map
    (fun (enc, name, img) ->
      test (name ^ " rejects a non-minimal header") (fun () ->
          let img = Bytes.of_string img in
          match Codec.read_var (vcc_of enc) i32 (Mbuf.reader_of_bytes img) with
          | (_ : Value.t) ->
              Alcotest.failf "accepted non-minimal %s" (hex img)
          | exception Codec.Decode_error _ -> ()))
    [
      (* 127 as uint8: one width too wide *)
      (Encoding.msgpack, "msgpack", "\xcc\x7f");
      (* 255 as uint16 *)
      (Encoding.msgpack, "msgpack 16-bit", "\xcd\x00\xff");
      (* 23 with a one-byte argument *)
      (Encoding.cbor, "cbor", "\x18\x17");
      (* 255 with a two-byte argument *)
      (Encoding.cbor, "cbor 16-bit", "\x19\x00\xff");
    ]

(* -- scalar boundaries through the full pipeline ---------------------- *)

(* one i32 parameter: the plan path emits Put_varhead, the naive path
   calls Codec.write_var — both must produce exactly the pinned image *)
let pipeline_scalar_tests =
  List.map
    (fun (enc, v, expect) ->
      test
        (Printf.sprintf "%s pipeline i32 %d -> %s" enc.Encoding.name v expect)
        (fun () ->
          let m = Mint.create () in
          let idx = Mint.int32 m in
          let roots =
            [
              Plan_compile.Rvalue
                ( Mplan.Rparam { index = 0; name = "v"; deref = false },
                  idx, Pres.Direct );
            ]
          in
          let e_plan = Stub_opt.compile_encoder ~enc ~mint:m ~named:[] roots in
          let e_naive =
            Stub_naive.compile_encoder ~enc ~mint:m ~named:[] roots
          in
          let run e =
            let buf = Mbuf.create 16 in
            e buf [| vi v |];
            hex (Mbuf.contents buf)
          in
          Alcotest.(check string) "plan bytes" expect (run e_plan);
          Alcotest.(check string) "naive bytes" expect (run e_naive);
          let d =
            Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
              [ Stub_opt.Dvalue (idx, Pres.Direct) ]
          in
          let wire = emit_var enc i32 (vi v) in
          match d (Mbuf.reader_of_bytes wire) with
          | [| got |] when Value.equal got (vi v) -> ()
          | _ -> Alcotest.fail "plan decode disagrees"))
    (List.concat_map
       (fun enc -> [ (enc, 127, ""); (enc, 128, ""); (enc, 65536, "") ])
       [ Encoding.msgpack; Encoding.cbor ]
    |> List.map (fun (enc, v, _) ->
           let buf = Mbuf.create 16 in
           Codec.write_var (vcc_of enc) ~check:true i32 buf (vi v);
           (enc, v, hex (Mbuf.contents buf))))

(* -- truncation mid-header parity across engine tiers ----------------- *)

(* A 300-char string forces a multi-byte length header (msgpack str16,
   cbor text+2).  Cut the wire at EVERY byte — including each byte
   inside the header — and require the plan decoder and the naive
   decoder to fail (or succeed) identically. *)
let truncation_parity_tests =
  List.map
    (fun (enc : Encoding.t) ->
      test
        (enc.Encoding.name ^ ": mid-header truncation parity across tiers")
        (fun () ->
          let m = Mint.create () in
          let s = Mint.string_ m ~max_len:(Some 512) in
          let roots =
            [
              Plan_compile.Rvalue
                ( Mplan.Rparam { index = 0; name = "s"; deref = false },
                  s, Pres.Terminated_string );
            ]
          in
          let droots = [ Stub_opt.Dvalue (s, Pres.Terminated_string) ] in
          let v = Value.Vstring (String.make 300 'x') in
          let e = Stub_opt.compile_encoder ~enc ~mint:m ~named:[] roots in
          let buf = Mbuf.create 512 in
          e buf [| v |];
          let wire = Mbuf.contents buf in
          let d_plan = Stub_opt.compile_decoder ~enc ~mint:m ~named:[] droots
          and d_naive =
            Stub_naive.compile_decoder ~enc ~mint:m ~named:[] droots
          in
          let outcome d cut =
            match d (Mbuf.reader_of_bytes ~len:cut wire) with
            | [| v' |] -> Some v'
            | _ -> None
            | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> None
          in
          for cut = 0 to Bytes.length wire do
            let a = outcome d_plan cut and b = outcome d_naive cut in
            match (a, b) with
            | None, None -> ()
            | Some x, Some y when Value.equal x y -> ()
            | _ ->
                Alcotest.failf "tiers disagree at cut %d/%d" cut
                  (Bytes.length wire)
          done;
          match outcome d_plan (Bytes.length wire) with
          | Some v' when Value.equal v' v -> ()
          | _ -> Alcotest.fail "full wire did not decode to the input"))
    [ Encoding.msgpack; Encoding.cbor ]

(* -- every int kind across every header width -------------------------- *)

let rejected f =
  match f () with _ -> false | exception Codec.Decode_error _ -> true

let be_bytes n v =
  String.init n (fun i ->
      Char.chr
        (Int64.to_int
           (Int64.logand (Int64.shift_right_logical v (8 * (n - 1 - i))) 0xffL)))

(* [v]'s image one header width wider than its canonical [img]: the
   same family's next payload width, or [None] past the 8-byte form *)
let wider (enc : Encoding.t) ~signed v img =
  let next =
    match String.length img with
    | 1 -> Some (1, 0)
    | 2 -> Some (2, 1)
    | 3 -> Some (4, 2)
    | 5 -> Some (8, 3)
    | _ -> None
  in
  let neg = signed && Int64.compare v 0L < 0 in
  Option.map
    (fun (w, code) ->
      match vcc_of enc with
      | Encoding.Msgpack ->
          String.make 1 (Char.chr ((if neg then 0xd0 else 0xcc) + code))
          ^ be_bytes w v
      | Encoding.Cbor ->
          let major, arg = if neg then (1, Int64.lognot v) else (0, v) in
          String.make 1 (Char.chr ((major lsl 5) lor (24 + code)))
          ^ be_bytes w arg)
    next

let in_field ~bits ~signed v = Encoding.canon_int ~bits ~signed v = v

(* the field's own edges and each format's header-width thresholds, each
   +-1, plus random values of every bit length and both signs — all
   kept to those the field can hold *)
let width_candidates (enc : Encoding.t) ~bits ~signed =
  let top = Int64.shift_left 1L (if signed then bits - 1 else bits) in
  let edges =
    if signed then [ Int64.neg top; Int64.pred top ]
    else [ (if bits = 64 then -1L else Int64.pred top) ]
  in
  let thresholds =
    match vcc_of enc with
    | Encoding.Msgpack ->
        [ 0x7fL; 0xffL; 0xffffL; 0xffff_ffffL; -32L; -128L; -32768L;
          -0x8000_0000L ]
    | Encoding.Cbor ->
        [ 23L; 0xffL; 0xffffL; 0xffff_ffffL; -24L; -256L; -65536L;
          -0x1_0000_0000L ]
  in
  let rng = Random.State.make [| bits; Bool.to_int signed |] in
  let random =
    List.concat
      (List.init 64 (fun k ->
           let v =
             Int64.shift_right_logical (Random.State.bits64 rng) (63 - k)
           in
           [ v; Int64.lognot v ]))
  in
  List.concat_map
    (fun t -> [ Int64.pred t; t; Int64.succ t ])
    ((0L :: edges) @ thresholds)
  @ random
  |> List.filter (in_field ~bits ~signed)
  |> List.sort_uniq compare

let width_tests =
  List.concat_map
    (fun (enc : Encoding.t) ->
      List.concat_map
        (fun bits ->
          List.map
            (fun signed ->
              test
                (Printf.sprintf "%s %s%d: every header width, both engines"
                   enc.Encoding.name (if signed then "i" else "u") bits)
                (fun () ->
                  let vcc = vcc_of enc in
                  let kind = Encoding.Kint { bits; signed } in
                  let of_int64 v =
                    if bits <= 32 then Value.Vint (Int64.to_int v)
                    else Value.Vint64 v
                  in
                  let m = Mint.create () in
                  let elem = Mint.int_ m ~bits ~signed in
                  let arr = Mint.array m ~elem ~min_len:0 ~max_len:None in
                  let seq =
                    Pres.Counted_seq
                      { len_field = "_length"; buf_field = "_buffer";
                        elem = Pres.Direct }
                  in
                  let roots =
                    [ Plan_compile.Rvalue
                        ( Mplan.Rparam { index = 0; name = "xs"; deref = false },
                          arr, seq ) ]
                  in
                  (* 8-bit arrays travel as byte strings, so their
                     Stub_opt decoder is the scalar one *)
                  let decode_one =
                    if bits = 8 then
                      let d =
                        Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
                          [ Stub_opt.Dvalue (elem, Pres.Direct) ]
                      in
                      fun img -> d (Mbuf.reader_of_bytes (Bytes.of_string img))
                    else
                      let d =
                        Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
                          [ Stub_opt.Dvalue (arr, seq) ]
                      in
                      let one = Bytes.to_string (emit_len enc Encoding.Larr 1) in
                      fun img ->
                        d (Mbuf.reader_of_bytes (Bytes.of_string (one ^ img)))
                  in
                  let both_reject what img =
                    if not (rejected (fun () ->
                                Codec.read_var vcc kind
                                  (Mbuf.reader_of_bytes (Bytes.of_string img))))
                    then Alcotest.failf "Codec accepted %s %s" what (hex (Bytes.of_string img));
                    if not (rejected (fun () -> decode_one img)) then
                      Alcotest.failf "Stub_opt accepted %s %s" what
                        (hex (Bytes.of_string img))
                  in
                  let values = width_candidates enc ~bits ~signed in
                  List.iter
                    (fun v ->
                      let x = of_int64 v in
                      let img = emit_var enc kind x in
                      let r = Mbuf.reader_of_bytes img in
                      let got = Codec.read_var vcc kind r in
                      if not (Value.equal got x && Mbuf.remaining r = 0) then
                        Alcotest.failf "%Ld: wrote %s, read %a" v (hex img)
                          Value.pp got;
                      Option.iter (both_reject "non-minimal")
                        (wider enc ~signed v (Bytes.to_string img)))
                    values;
                  (* one value past each edge of the field, emitted as a
                     64-bit value of the other signedness when needed *)
                  let outside =
                    if bits = 64 then
                      if signed then [ (false, Int64.min_int) ] else [ (true, -1L) ]
                    else
                      let top = Int64.shift_left 1L (if signed then bits - 1 else bits) in
                      [ (true, top);
                        (true, if signed then Int64.pred (Int64.neg top) else -1L) ]
                  in
                  List.iter
                    (fun (src_signed, v) ->
                      let src = Encoding.Kint { bits = 64; signed = src_signed } in
                      both_reject "out-of-range"
                        (Bytes.to_string (emit_var enc src (Value.Vint64 v))))
                    outside;
                  (* the bulk atom-array path: Stub_opt bytes = Stub_naive
                     bytes = the per-value images, decoded back whole *)
                  if bits > 8 then begin
                    let xs =
                      if bits <= 32 then
                        Value.Vint_array
                          (Array.of_list (List.map Int64.to_int values))
                      else Value.Varray (Array.of_list (List.map of_int64 values))
                    in
                    let run e =
                      let buf = Mbuf.create 64 in
                      e buf [| xs |];
                      Mbuf.contents buf
                    in
                    let plan = run (Stub_opt.compile_encoder ~enc ~mint:m ~named:[] roots)
                    and naive =
                      run (Stub_naive.compile_encoder ~enc ~mint:m ~named:[] roots)
                    in
                    let images =
                      Bytes.concat Bytes.empty
                        (emit_len enc Encoding.Larr (List.length values)
                        :: List.map (fun v -> emit_var enc kind (of_int64 v)) values)
                    in
                    Alcotest.(check string) "Stub_opt = per-value images"
                      (hex images) (hex plan);
                    Alcotest.(check string) "Stub_opt = Stub_naive" (hex naive)
                      (hex plan);
                    match
                      Stub_opt.compile_decoder ~enc ~mint:m ~named:[]
                        [ Stub_opt.Dvalue (arr, seq) ]
                        (Mbuf.reader_of_bytes plan)
                    with
                    | [| got |] when Value.equal got xs -> ()
                    | _ -> Alcotest.fail "bulk decode disagrees"
                  end))
            [ true; false ])
        [ 8; 16; 32; 64 ])
    [ Encoding.msgpack; Encoding.cbor ]

(* a canonical 8-byte cbor count of 2^63 once wrapped to a length of 0 *)
let wide_length_test =
  test "cbor rejects an 8-byte length of 2^63" (fun () ->
      let img = Bytes.of_string "\x9b\x80\x00\x00\x00\x00\x00\x00\x00" in
      if
        not
          (rejected (fun () ->
               Codec.read_vlen (vcc_of Encoding.cbor) Encoding.Larr
                 (Mbuf.reader_of_bytes img)))
      then Alcotest.fail "accepted a 2^63-element array head")

(* -- a hostile element count allocates nothing ------------------------- *)

(* A count of 2^31 - 1 in an 8-byte body: every engine must fail with a
   typed error before it allocates an array for the count. *)
let hostile_count_tests =
  List.concat_map
    (fun (enc : Encoding.t) ->
      List.map
        (fun (engine, compile) ->
          test
            (Printf.sprintf "%s %s: a hostile count allocates nothing"
               enc.Encoding.name engine)
            (fun () ->
              let count =
                match enc.Encoding.var with
                | Some _ -> Bytes.to_string (emit_len enc Encoding.Larr 0x7fff_ffff)
                | None -> "\x7f\xff\xff\xff"
              in
              let wire = Bytes.of_string (count ^ String.make 8 '\x01') in
              let m = Mint.create () in
              List.iter
                (fun elem ->
                  let arr = Mint.array m ~elem ~min_len:0 ~max_len:None in
                  let seq =
                    Pres.Counted_seq
                      { len_field = "_length"; buf_field = "_buffer";
                        elem = Pres.Direct }
                  in
                  let d = compile ~enc ~mint:m [ Stub_opt.Dvalue (arr, seq) ] in
                  let before = Gc.allocated_bytes () in
                  (match d (Mbuf.reader_of_bytes wire) with
                  | (_ : Value.t array) ->
                      Alcotest.fail "decoded 2^31 - 1 elements from 8 bytes"
                  | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> ());
                  let grown = Gc.allocated_bytes () -. before in
                  if grown > 1e6 then
                    Alcotest.failf "allocated %.0f bytes before failing" grown)
                [ Mint.int32 m; Mint.int_ m ~bits:64 ~signed:true ]))
        [
          ("Stub_opt", fun ~enc ~mint droots ->
              Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
          ("Stub_naive", fun ~enc ~mint droots ->
              Stub_naive.compile_decoder ~enc ~mint ~named:[] droots);
        ])
    [ Encoding.msgpack; Encoding.cbor; Encoding.xdr ]

(* -- the verifier rejects a dropped worst-case reservation ------------ *)

let verifier_tests =
  [
    test "generated msgpack/cbor plans verify clean" (fun () ->
        List.iter
          (fun enc ->
            let m = Mint.create () in
            let s = Mint.string_ m ~max_len:(Some 64) in
            let arr = Mint.array m ~elem:(Mint.int32 m) ~min_len:0
                ~max_len:(Some 16) in
            let payload = Mint.struct_ m [ ("name", s); ("xs", arr) ] in
            let pres =
              Pres.Struct
                [
                  ("name", Pres.Terminated_string);
                  ( "xs",
                    Pres.Counted_seq
                      {
                        len_field = "_length";
                        buf_field = "_buffer";
                        elem = Pres.Direct;
                      } );
                ]
            in
            let roots =
              [
                Plan_compile.Rvalue
                  ( Mplan.Rparam { index = 0; name = "v"; deref = false },
                    payload, pres );
              ]
            in
            let plan = Plan_compile.compile ~enc ~mint:m ~named:[] roots in
            (match Plan_verify.check_plan plan with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "%s plan rejected: %s" enc.Encoding.name
                  (Plan_verify.error_to_string e));
            let dplan =
              Dplan_compile.compile ~enc ~mint:m ~named:[]
                [ Dplan_compile.Dvalue (payload, pres) ]
            in
            match Plan_verify.check_dplan dplan with
            | Ok () -> ()
            | Error e ->
                Alcotest.failf "%s dplan rejected: %s" enc.Encoding.name
                  (Plan_verify.error_to_string e))
          [ Encoding.msgpack; Encoding.cbor ]);
    test "under-reserved variable header is rejected (pinned diagnostic)"
      (fun () ->
        (* vh_check = false with no covering Ensure ahead of it: the
           emit could overrun the buffer by up to vh_worst bytes *)
        let bad =
          {
            Plan_compile.p_ops =
              [
                Mplan.Put_varhead
                  {
                    vh_kind = i32;
                    vh_worst = 5;
                    vh_check = false;
                    vh_src = Mplan.Vh_const 7L;
                    vh_image = Some "\x07";
                  };
              ];
            p_subs = [];
          }
        in
        match Plan_verify.check_plan bad with
        | Ok () -> Alcotest.fail "verifier accepted an under-reserved varhead"
        | Error e ->
            let msg = Plan_verify.error_to_string e in
            if
              not
                (contains msg
                   "variable header skips its worst-case reservation outside \
                    any covering reservation (dropped ensure)")
            then Alcotest.failf "wrong diagnostic: %s" msg);
    test "self-checking variable header is accepted" (fun () ->
        let ok =
          {
            Plan_compile.p_ops =
              [
                Mplan.Put_varhead
                  {
                    vh_kind = i32;
                    vh_worst = 5;
                    vh_check = true;
                    vh_src = Mplan.Vh_const 7L;
                    vh_image = Some "\x07";
                  };
              ];
            p_subs = [];
          }
        in
        match Plan_verify.check_plan ok with
        | Ok () -> ()
        | Error e ->
            Alcotest.failf "verifier rejected a self-checking varhead: %s"
              (Plan_verify.error_to_string e));
    test "unsigned kinds pin the same transitions" (fun () ->
        Alcotest.(check string) "msgpack u32 128" "cc80"
          (hex (emit_var Encoding.msgpack u32 (vi 128)));
        Alcotest.(check string) "cbor u32 24" "1818"
          (hex (emit_var Encoding.cbor u32 (vi 24))));
  ]

(* -- a run of heads reads as one head at a time ------------------------ *)

(* A random head of [vc]: any tag one time in three, else one of the
   integer forms (fixints, the 1, 2, 4 and 8-byte forms, positive and
   negative), then the payload its tag implies, each byte an edge value
   or random, so that non-minimal payloads are common. *)
let random_head vc st =
  let forms =
    match vc with
    | Encoding.Msgpack -> [| 0x00; 0x7f; 0xe0; 0xff; 0xcc; 0xcd; 0xce; 0xcf; 0xd0; 0xd1; 0xd2; 0xd3 |]
    | Encoding.Cbor -> [| 0x00; 0x17; 0x18; 0x19; 0x1a; 0x1b; 0x20; 0x37; 0x38; 0x39; 0x3a; 0x3b |]
  in
  let t =
    if Random.State.int st 3 = 0 then Random.State.int st 256
    else forms.(Random.State.int st (Array.length forms))
  in
  let width =
    match vc with
    | Encoding.Msgpack -> (
        match t with
        | 0xcc | 0xd0 -> 1
        | 0xcd | 0xd1 -> 2
        | 0xce | 0xd2 -> 4
        | 0xcf | 0xd3 -> 8
        | _ -> Random.State.int st 3)
    | Encoding.Cbor -> ( match t land 0x1f with 24 -> 1 | 25 -> 2 | 26 -> 4 | 27 -> 8 | _ -> 0)
  in
  let byte _ =
    let edges = [| 0x00; 0x00; 0x01; 0x7f; 0x80; 0xff |] in
    Char.chr
      (if Random.State.bool st then edges.(Random.State.int st 6) else Random.State.int st 256)
  in
  String.make 1 (Char.chr t) ^ String.init width byte

type run_outcome = Values of int list * int | Var_error of string | Short

let pp_run fmt = function
  | Values (vs, pos) ->
      Format.fprintf fmt "values [%s] to byte %d" (String.concat "; " (List.map string_of_int vs)) pos
  | Var_error m -> Format.fprintf fmt "Var_error %S" m
  | Short -> Format.pp_print_string fmt "Short_buffer"

let outcome r f =
  match f r with
  | vs -> Values (vs, Mbuf.rpos r)
  | exception Encoding.Var_error m -> Var_error m
  | exception Mbuf.Short_buffer -> Short

(* [n] heads read into each 8, 16 and 32-bit signed and unsigned field
   through one var_fill_ints run and through n var_get_int calls agree:
   the same values to the same byte, or the same failure, on every cut
   of the message, contiguous and cut into segments. *)
let run_prop vc seed =
  let st = Random.State.make [| seed |] in
  let heads = List.init (1 + Random.State.int st 8) (fun _ -> random_head vc st) in
  let wire = Bytes.of_string (String.concat "" heads) and n = List.length heads in
  let len = Bytes.length wire in
  let cuts = List.init (1 + Random.State.int st 4) (fun _ -> 1 + Random.State.int st (max 1 (len - 1))) in
  List.iter
    (fun (bits, signed) ->
      let kind = Encoding.Kint { bits; signed } in
      let fill = Encoding.var_fill_ints vc kind in
      for cut = 0 to len do
        List.iter
          (fun (how, reader) ->
            let run =
              outcome (reader ()) (fun r ->
                  let out = Array.make n 0 in
                  fill r out;
                  Array.to_list out)
            and one = outcome (reader ()) (fun r -> List.init n (fun _ -> Encoding.var_get_int vc kind r)) in
            if run <> one then
              QCheck.Test.fail_reportf "%s%d, %s, %d of %d bytes (%s): run %a, one at a time %a"
                (if signed then "i" else "u") bits how cut len (hex wire) pp_run run pp_run one)
          [
            ("contiguous", fun () -> Mbuf.reader_of_bytes ~len:cut wire);
            ("every byte a segment", fun () -> Test_decplan.segmented ~len:cut wire (List.init len Fun.id));
            ("segmented", fun () -> Test_decplan.segmented ~len:cut wire cuts);
          ]
      done)
    [ (8, true); (8, false); (16, true); (16, false); (32, true); (32, false) ];
  true

(* The integer forms of [vc]: the values each holds, its tag and its
   payload width (a fixint's tag is its tag here or'd with its
   argument). *)
let int_forms = function
  | Encoding.Msgpack ->
      [ (0, 127, 0x00, 0); (128, 255, 0xcc, 1); (256, 65535, 0xcd, 2); (65536, 0xffff_ffff, 0xce, 4);
        (-32, -1, 0xe0, 0); (-128, -33, 0xd0, 1); (-32768, -129, 0xd1, 2);
        (-0x8000_0000, -32769, 0xd2, 4) ]
  | Encoding.Cbor ->
      [ (0, 23, 0x00, 0); (24, 255, 0x18, 1); (256, 65535, 0x19, 2); (65536, 0xffff_ffff, 0x1a, 4);
        (-24, -1, 0x20, 0); (-256, -25, 0x38, 1); (-65536, -257, 0x39, 2);
        (-0x1_0000_0000, -65537, 0x3a, 4) ]

(* A valid head for the field [bits, signed]: a form whose values meet
   the field's, and a value of both, an edge of the form half the time;
   written byte by byte from the form, not by the emitter, and checked
   to read back as that value. *)
let valid_head vc ~bits ~signed st =
  let lo = if signed then -(1 lsl (bits - 1)) else 0
  and hi = (1 lsl (if signed then bits - 1 else bits)) - 1 in
  let forms =
    List.filter_map
      (fun (a, b, tag, width) ->
        let a = max a lo and b = min b hi in
        if a <= b then Some (a, b, tag, width) else None)
      (int_forms vc)
  in
  let a, b, tag, width = List.nth forms (Random.State.int st (List.length forms)) in
  let v =
    match Random.State.int st 4 with
    | 0 -> a
    | 1 -> b
    | _ -> a + Random.State.full_int st (b - a + 1)
  in
  let arg = match vc with Encoding.Cbor when v < 0 -> -1 - v | _ -> v in
  let head =
    if width = 0 then String.make 1 (Char.chr ((tag lor arg) land 0xff))
    else
      String.make 1 (Char.chr tag)
      ^ String.init width (fun j -> Char.chr ((arg lsr (8 * (width - 1 - j))) land 0xff))
  in
  let kind = Encoding.Kint { bits; signed } in
  (match Encoding.var_get_int vc kind (Mbuf.reader_of_bytes (Bytes.of_string head)) with
  | got when got = v -> ()
  | got -> QCheck.Test.fail_reportf "head %s reads as %d, not %d" (hex (Bytes.of_string head)) got v
  | exception Encoding.Var_error m -> QCheck.Test.fail_reportf "head %s of %d refused: %s" (hex (Bytes.of_string head)) v m);
  head

(* 50 to 300 heads, valid heads of every form for the field but at
   most one [random_head] (often malformed, non-minimal, out of the
   field's range or an 8-byte form) at a random index, read into each
   8, 16 and 32-bit signed and unsigned field through one var_fill_ints
   run and one var_get_int at a time: the same values to the same byte,
   or the same failure, whole and cut short, contiguous and cut into
   segments, so that heads straddle a cut and sit in a window's last 4
   bytes. *)
let long_run_prop vc seed =
  let st = Random.State.make [| seed |] in
  List.iter
    (fun (bits, signed) ->
      let kind = Encoding.Kint { bits; signed } in
      let n = 50 + Random.State.int st 251 in
      let bad = if Random.State.bool st then Random.State.int st n else -1 in
      let heads =
        List.init n (fun i -> if i = bad then random_head vc st else valid_head vc ~bits ~signed st)
      in
      let wire = Bytes.of_string (String.concat "" heads) in
      let len = Bytes.length wire in
      let every k = List.init (len / k) (fun i -> (i + 1) * k) in
      let cuts = List.init (1 + Random.State.int st 12) (fun _ -> 1 + Random.State.int st (len - 1)) in
      let fill = Encoding.var_fill_ints vc kind in
      List.iter
        (fun cut ->
          List.iter
            (fun (how, reader) ->
              let run =
                outcome (reader ()) (fun r ->
                    let out = Array.make n 0 in
                    fill r out;
                    Array.to_list out)
              and one = outcome (reader ()) (fun r -> List.init n (fun _ -> Encoding.var_get_int vc kind r)) in
              if run <> one then
                QCheck.Test.fail_reportf "%s%d, %d heads (bad at %d), %s, %d of %d bytes (%s): run %a, one at a time %a"
                  (if signed then "i" else "u") bits n bad how cut len (hex wire) pp_run run pp_run one)
            [
              ("contiguous", fun () -> Mbuf.reader_of_bytes ~len:cut wire);
              ("segmented", fun () -> Test_decplan.segmented ~len:cut wire cuts);
              ("segments of 7 bytes", fun () -> Test_decplan.segmented ~len:cut wire (every 7));
              ("segments of 3 bytes", fun () -> Test_decplan.segmented ~len:cut wire (every 3));
            ])
        [ len; Random.State.int st len; len - 1 - Random.State.int st (min len 6) ])
    [ (8, true); (8, false); (16, true); (16, false); (32, true); (32, false) ];
  true

(* The values at which a head changes form, one either side, and
   random ones, many outside a narrow field. *)
let put_values st =
  let edges =
    List.concat_map
      (fun x -> [ x - 1; x; x + 1 ])
      [ 0; 23; 24; 127; 128; 255; 256; 65535; 65536; 0x7fff_ffff; 0xffff_ffff; -1; -24; -25; -32;
        -33; -128; -129; -256; -257; -32768; -32769; -65536; -65537; -0x8000_0000 ]
  in
  let random _ =
    match Random.State.int st 3 with
    | 0 -> Random.State.int st 300 - 150
    | 1 -> Random.State.int st 0x20000 - 0x10000
    | _ -> Random.State.full_int st (1 lsl 34) - (1 lsl 33)
  in
  Array.of_list (edges @ List.init 100 random)

(* var_put_ints writes a field's run as the concatenation of one
   var_put_int image per value reduced to the field, and var_put_int_at
   stores each image at any offset of a window. *)
let put_run_prop vc seed =
  let st = Random.State.make [| seed |] in
  List.iter
    (fun (bits, signed) ->
      let a = put_values st in
      let reduce x =
        let s = Sys.int_size - bits in
        if signed then (x lsl s) asr s else (x lsl s) lsr s
      in
      let one = Mbuf.create 16 in
      Array.iter (fun x -> Encoding.var_put_int vc ~check:true one (reduce x)) a;
      let want = Bytes.to_string (Mbuf.contents one) in
      let w = Mbuf.create 16 in
      Mbuf.ensure w (5 * Array.length a);
      Encoding.var_put_ints vc ~bits ~signed w a;
      let got = Bytes.to_string (Mbuf.contents w) in
      if got <> want then
        QCheck.Test.fail_reportf "%s%d: run %s, one at a time %s" (if signed then "i" else "u") bits
          (hex (Bytes.of_string got)) (hex (Bytes.of_string want));
      let put_at = Encoding.var_put_int_at vc ~bits ~signed and b = Bytes.make 16 '\xff' in
      Array.iter
        (fun x ->
          let image = Mbuf.create 8 in
          Encoding.var_put_int vc ~check:true image (reduce x);
          let image = Bytes.to_string (Mbuf.contents image) and at = Random.State.int st 8 in
          let width = put_at b at x in
          if Bytes.sub_string b at width <> image then
            QCheck.Test.fail_reportf "%s%d: %d stored at %d as %s, its image %s" (if signed then "i" else "u")
              bits x at (hex (Bytes.sub b at width)) (hex (Bytes.of_string image)))
        a)
    [ (8, true); (8, false); (16, true); (16, false); (32, true); (32, false) ];
  true

let run_tests =
  List.concat_map
    (fun (count, what, prop) ->
      List.map
        (fun (name, vc) ->
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~count ~name:(name ^ ": " ^ what)
               (QCheck.make ~print:(Printf.sprintf "seed %d") QCheck.Gen.nat)
               (prop vc)))
        [ ("msgpack", Encoding.Msgpack); ("cbor", Encoding.Cbor) ])
    [
      (500, "a run of heads reads as one head at a time", run_prop);
      (100, "a long run of heads reads as one head at a time", long_run_prop);
      (100, "a run of values writes as one head at a time", put_run_prop);
    ]

let suite =
  [
    ( "varhead:boundaries",
      msgpack_int_tests @ msgpack_len_tests @ cbor_int_tests @ cbor_len_tests
      @ non_minimal_tests );
    ("varhead:pipeline", pipeline_scalar_tests @ truncation_parity_tests);
    ("varhead:widths", width_tests @ [ wide_length_test ]);
    ("varhead:hostile", hostile_count_tests);
    ("varhead:verifier", verifier_tests);
    ("varhead:runs", run_tests);
  ]
