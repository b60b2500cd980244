(* Wire-level tests: marshal buffers and golden byte layouts.

   The XDR vectors follow RFC 1832's worked example conventions; the
   CDR vectors check GIOP's alignment and NUL-counted strings. *)

let test name f = Alcotest.test_case name `Quick f

let hex b =
  String.concat ""
    (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq (Bytes.to_string b)))))

let mbuf_tests =
  [
    test "append and read back every width" (fun () ->
        let b = Mbuf.create 4 in
        Mbuf.put_u8 b 0xAB;
        Mbuf.put_i16 b ~be:true 0x1234;
        Mbuf.put_i32 b ~be:true 0x01020304;
        Mbuf.put_i64 b ~be:true 0x1122334455667788L;
        Mbuf.put_f64 b ~be:true 1.5;
        let r = Mbuf.reader b in
        Alcotest.(check int) "u8" 0xAB (Mbuf.read_u8 r);
        Alcotest.(check int) "i16" 0x1234 (Mbuf.read_i16 r ~be:true);
        Alcotest.(check int) "i32" 0x01020304 (Mbuf.read_i32 r ~be:true);
        Alcotest.(check int64) "i64" 0x1122334455667788L (Mbuf.read_i64 r ~be:true);
        Alcotest.(check (float 0.)) "f64" 1.5 (Mbuf.read_f64 r ~be:true));
    test "little endian stores" (fun () ->
        let b = Mbuf.create 4 in
        Mbuf.put_i32 b ~be:false 0x01020304;
        Alcotest.(check string) "layout" "04030201" (hex (Mbuf.contents b)));
    test "align pads with zeros" (fun () ->
        let b = Mbuf.create 4 in
        Mbuf.put_u8 b 0xFF;
        Mbuf.align b 4;
        Mbuf.put_u8 b 0xEE;
        Alcotest.(check string) "layout" "ff000000ee" (hex (Mbuf.contents b)));
    test "growth preserves contents" (fun () ->
        let b = Mbuf.create 4 in
        for i = 0 to 999 do
          Mbuf.put_i32 b ~be:true i
        done;
        let r = Mbuf.reader b in
        for i = 0 to 999 do
          Alcotest.(check int) "value" i (Mbuf.read_i32 r ~be:true)
        done);
    test "reader bounds are enforced" (fun () ->
        let b = Mbuf.create 4 in
        Mbuf.put_i32 b ~be:true 7;
        let r = Mbuf.reader b in
        ignore (Mbuf.read_i32 r ~be:true);
        match Mbuf.read_u8 r with
        | _ -> Alcotest.fail "expected Short_buffer"
        | exception Mbuf.Short_buffer -> ());
    test "set at offset then advance (chunk discipline)" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.ensure b 8;
        Mbuf.set_i32_be b 4 0xBEEF;
        Mbuf.set_i32_be b 0 0xCAFE;
        Mbuf.advance b 8;
        Alcotest.(check string) "layout" "0000cafe0000beef" (hex (Mbuf.contents b)));
  ]

(* Scatter-gather: borrowed segments, segmented readers, the pools, and
   the writer-reuse aliasing contract pinned in mbuf.mli. *)

let sg_tests =
  [
    test "borrow splices payload by reference" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_i32 b ~be:true 0xAABB;
        let payload = String.make 600 'x' in
        Mbuf.put_borrow_string b payload 0 600;
        Mbuf.put_i32 b ~be:true 0xCCDD;
        Alcotest.(check int) "pos" 608 (Mbuf.pos b);
        Alcotest.(check int) "segments" 3 (Mbuf.segment_count b);
        let st = Mbuf.stats b in
        Alcotest.(check int) "borrowed bytes" 600 st.Mbuf.bytes_borrowed;
        Alcotest.(check int) "borrows" 1 st.Mbuf.borrows;
        let c = Mbuf.contents b in
        Alcotest.(check int) "flat length" 608 (Bytes.length c);
        Alcotest.(check string) "payload lands between the ints" payload
          (Bytes.sub_string c 4 600);
        Alcotest.(check string) "suffix" "0000ccdd"
          (hex (Bytes.sub c 604 4)));
    test "iter_segments walks the message in order without flattening"
      (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_u8 b 0x01;
        Mbuf.put_borrow_string b "abc" 0 3;
        Mbuf.put_u8 b 0x02;
        let acc = Buffer.create 8 in
        Mbuf.iter_segments b (fun base off len ->
            Buffer.add_subbytes acc base off len);
        Alcotest.(check string) "bytes" "0161626302" (hex (Buffer.to_bytes acc));
        Alcotest.(check int) "no flatten" 0 (Mbuf.stats b).Mbuf.flattens);
    test "multi-width reads gather across a borrow boundary" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_u8 b 0x01;
        Mbuf.put_borrow_string b "\x02\x03\x04" 0 3;
        Mbuf.put_u8 b 0x05;
        Mbuf.put_i64 b ~be:true 0x1122334455667788L;
        let r = Mbuf.reader b in
        (* the i32 spans active/borrow/active: need pulls it together *)
        Alcotest.(check int) "spanning i32" 0x01020304
          (Mbuf.read_i32 r ~be:true);
        Alcotest.(check int) "next byte" 0x05 (Mbuf.read_u8 r);
        Alcotest.(check int64) "i64 after the span" 0x1122334455667788L
          (Mbuf.read_i64 r ~be:true);
        Alcotest.(check int) "global position" 13 (Mbuf.rpos r);
        Alcotest.(check int) "fully consumed" 0 (Mbuf.remaining r));
    test "bulk read gathers across segments" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_u8 b 0xFF;
        Mbuf.put_borrow_string b "hello world" 0 11;
        Mbuf.put_u8 b 0xEE;
        let r = Mbuf.reader b in
        Alcotest.(check int) "lead" 0xFF (Mbuf.read_u8 r);
        Alcotest.(check string) "spanning read_string" "hello world\xee"
          (Mbuf.read_string r 12));
    test "truncation mid-segment raises Short_buffer" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_i32 b ~be:true 600;
        Mbuf.put_borrow_string b (String.make 600 'y') 0 600;
        (* cut 300 bytes into the borrowed segment *)
        let r = Mbuf.reader ~len:304 b in
        Alcotest.(check int) "length header" 600 (Mbuf.read_i32 r ~be:true);
        Alcotest.(check int) "readable prefix" 300
          (Bytes.length (Mbuf.read_bytes r 300));
        (match Mbuf.read_u8 r with
        | _ -> Alcotest.fail "expected Short_buffer"
        | exception Mbuf.Short_buffer -> ());
        (* a spanning datum cut by the truncation also fails cleanly *)
        let r2 = Mbuf.reader ~len:6 b in
        Mbuf.skip r2 4;
        match Mbuf.read_i32 r2 ~be:true with
        | _ -> Alcotest.fail "expected Short_buffer"
        | exception Mbuf.Short_buffer -> ());
    test "ensure reservation survives an interleaved borrow" (fun () ->
        (* the hoisted Ensure_count shape: reserve, store, borrow, store *)
        let b = Mbuf.create 16 in
        Mbuf.ensure b 16;
        Mbuf.set_i32_be b 0 0x1111;
        Mbuf.advance b 4;
        Mbuf.put_borrow_string b (String.make 700 'z') 0 700;
        Mbuf.set_i32_be b 0 0x2222;
        Mbuf.advance b 4;
        let c = Mbuf.contents b in
        Alcotest.(check int) "length" 708 (Bytes.length c);
        Alcotest.(check string) "head" "00001111" (hex (Bytes.sub c 0 4));
        Alcotest.(check string) "tail" "00002222" (hex (Bytes.sub c 704 4)));
    test "write_i32s after an ensure that sealed the active chunk behind a borrow"
      (fun () ->
        (* the borrow seals the 4 bytes before it; the ensure cannot fit
           40 bytes in the rest of that chunk and continues in a fresh
           one, which the writer window must cover exactly *)
        let b = Mbuf.create 16 in
        Mbuf.put_i32 b ~be:true 0x1111;
        Mbuf.put_borrow_string b (String.make 600 'z') 0 600;
        Mbuf.ensure b 40;
        Alcotest.(check int) "window covers the reservation" 40
          (Mbuf.wwindow b (fun () _ at stop -> stop - at) ());
        let words = [| 0; 0x7fffffff; 0x80000000; 0xffffffff; -1; 1; 2; 3; 4; 5 |] in
        Codec.write_i32s ~be:false b (Value.Vint_array words);
        Mbuf.advance b 40;
        Alcotest.(check int) "segments" 3 (Mbuf.segment_count b);
        let want = Mbuf.create 16 in
        Mbuf.put_i32 want ~be:true 0x1111;
        Mbuf.put_borrow_string want (String.make 600 'z') 0 600;
        Array.iter (Mbuf.put_i32 want ~be:false) words;
        Alcotest.(check string) "flattened bytes" (hex (Mbuf.contents want))
          (hex (Mbuf.unsafe_contents b)));
    (* the writer-reuse aliasing regression (mbuf.mli contract):
       bytes handed out by unsafe_contents/view, and borrowed payloads,
       must survive a subsequent reset+encode on the same writer *)
    test "unsafe_contents is not corrupted by reset+reencode" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_i32 b ~be:true 0x11111111;
        let kept, klen = Mbuf.view b in
        Alcotest.(check int) "view length" 4 klen;
        Mbuf.reset b;
        Mbuf.put_i32 b ~be:true 0x22222222;
        Mbuf.put_i32 b ~be:true 0x33333333;
        Alcotest.(check string) "old message intact" "11111111"
          (hex (Bytes.sub kept 0 4)));
    test "segmented unsafe_contents survives reset+reencode" (fun () ->
        let b = Mbuf.create 16 in
        let payload = String.make 600 'p' in
        Mbuf.put_i32 b ~be:true 600;
        Mbuf.put_borrow_string b payload 0 600;
        let kept = Mbuf.unsafe_contents b in
        let snapshot = Bytes.sub kept 0 (Mbuf.pos b) in
        Mbuf.reset b;
        Mbuf.put_i32 b ~be:true 3;
        Mbuf.put_borrow_string b "abc" 0 3;
        ignore (Mbuf.unsafe_contents b);
        Alcotest.(check string) "old flat message intact" (hex snapshot)
          (hex (Bytes.sub kept 0 604));
        Alcotest.(check string) "borrowed source never mutated"
          (String.make 600 'p') payload);
    test "pooled writer reuse keeps messages independent" (fun () ->
        let w = Mbuf.acquire ~size:64 () in
        Mbuf.put_i32 w ~be:true 0xAAAA;
        let first = Mbuf.unsafe_contents w in
        let fsnap = hex (Bytes.sub first 0 4) in
        Mbuf.release w;
        let w2 = Mbuf.acquire () in
        Alcotest.(check bool) "pool returned the same writer" true (w == w2);
        Alcotest.(check int) "came back reset" 0 (Mbuf.pos w2);
        Mbuf.put_i32 w2 ~be:true 0xBBBB;
        Alcotest.(check string) "first message intact" fsnap
          (hex (Bytes.sub first 0 4));
        Mbuf.release w2);
    test "reader pool round-trips" (fun () ->
        let b = Mbuf.create 16 in
        Mbuf.put_i32 b ~be:true 42;
        let r = Mbuf.acquire_reader b in
        Alcotest.(check int) "value" 42 (Mbuf.read_i32 r ~be:true);
        Mbuf.release_reader r;
        let r2 = Mbuf.acquire_reader b in
        Alcotest.(check bool) "pool returned the same reader" true (r == r2);
        Alcotest.(check int) "value again" 42 (Mbuf.read_i32 r2 ~be:true);
        Mbuf.release_reader r2);
    test "borrow threshold validates and gates eligibility" (fun () ->
        let old = Mbuf.borrow_threshold () in
        Fun.protect
          ~finally:(fun () -> Mbuf.set_borrow_threshold old)
          (fun () ->
            Mbuf.set_borrow_threshold 8;
            Alcotest.(check bool) "8 eligible" true (Mbuf.borrow_eligible 8);
            Alcotest.(check bool) "7 not" false (Mbuf.borrow_eligible 7);
            (match Mbuf.set_borrow_threshold 0 with
            | _ -> Alcotest.fail "expected Invalid_argument"
            | exception Invalid_argument _ -> ());
            Mbuf.set_sg_enabled false;
            Alcotest.(check bool) "disabled gates everything" false
              (Mbuf.borrow_eligible 1_000_000);
            Mbuf.set_sg_enabled true));
  ]

(* golden vectors through the optimized engine *)
let encode_with enc mint pres value =
  let encoder =
    Stub_opt.compile_encoder ~enc ~mint ~named:[]
      [
        Plan_compile.Rvalue
          (Mplan.Rparam { index = 0; name = "v"; deref = false },
           (match pres with `P (idx, _) -> idx),
           (match pres with `P (_, p) -> p));
      ]
  in
  let b = Mbuf.create 64 in
  encoder b [| value |];
  hex (Mbuf.contents b)

let golden name enc build expected =
  test name (fun () ->
      let mint = Mint.create () in
      let idx, pres, value = build mint in
      Alcotest.(check string) name expected
        (encode_with enc mint (`P (idx, pres)) value))

let xdr_goldens =
  [
    (* RFC 1832: integers are 4-byte big-endian two's complement *)
    golden "xdr: -1 is ffffffff" Encoding.xdr
      (fun m -> (Mint.int32 m, Pres.Direct, Value.Vint (-1)))
      "ffffffff";
    golden "xdr: bool true is 4 bytes" Encoding.xdr
      (fun m -> (Mint.bool_ m, Pres.Direct, Value.Vbool true))
      "00000001";
    golden "xdr: hyper" Encoding.xdr
      (fun m ->
        (Mint.int_ m ~bits:64 ~signed:true, Pres.Direct, Value.Vint64 0x1122334455667788L))
      "1122334455667788";
    (* RFC 1832 section 3.11's style of example: the string "sillyprog"
       (9 bytes) occupies a 4-byte length plus 12 bytes of data+pad *)
    golden "xdr: string pads to 4" Encoding.xdr
      (fun m ->
        (Mint.string_ m ~max_len:None, Pres.Terminated_string,
         Value.Vstring "sillyprog"))
      "0000000973696c6c7970726f67000000";
    golden "xdr: opaque<> with 3 bytes" Encoding.xdr
      (fun m ->
        ( Mint.array m ~elem:(Mint.int_ m ~bits:8 ~signed:false) ~min_len:0
            ~max_len:None,
          Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct },
          Value.Vbytes (Bytes.of_string "\001\002\003") ))
      "0000000301020300";
    golden "xdr: variable int array" Encoding.xdr
      (fun m ->
        ( Mint.array m ~elem:(Mint.int32 m) ~min_len:0 ~max_len:None,
          Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct },
          Value.Vint_array [| 1; 2 |] ))
      "000000020000000100000002";
    golden "xdr: optional present" Encoding.xdr
      (fun m ->
        ( Mint.array m ~elem:(Mint.int32 m) ~min_len:0 ~max_len:(Some 1),
          Pres.Opt_ptr Pres.Direct,
          Value.Vopt (Some (Value.Vint 5)) ))
      "0000000100000005";
    golden "xdr: small ints widen to 4 bytes" Encoding.xdr
      (fun m ->
        (Mint.int_ m ~bits:16 ~signed:true, Pres.Direct, Value.Vint (-2)))
      "fffffffe";
  ]

let cdr_goldens =
  [
    (* CDR strings count the terminating NUL *)
    golden "cdr: string counts its NUL" Encoding.cdr
      (fun m ->
        (Mint.string_ m ~max_len:None, Pres.Terminated_string, Value.Vstring "abc"))
      "0000000461626300";
    golden "cdr: char is one byte" Encoding.cdr
      (fun m -> (Mint.char8 m, Pres.Direct, Value.Vchar 'A'))
      "41";
    golden "cdr: natural alignment inserts padding" Encoding.cdr
      (fun m ->
        ( Mint.struct_ m [ ("c", Mint.char8 m); ("n", Mint.int32 m) ],
          Pres.Struct [ ("c", Pres.Direct); ("n", Pres.Direct) ],
          Value.Vstruct [| Value.Vchar 'x'; Value.Vint 1 |] ))
      "7800000000000001";
    golden "cdr: double aligns to 8" Encoding.cdr
      (fun m ->
        ( Mint.struct_ m [ ("n", Mint.int32 m); ("d", Mint.float_ m ~bits:64) ],
          Pres.Struct [ ("n", Pres.Direct); ("d", Pres.Direct) ],
          Value.Vstruct [| Value.Vint 1; Value.Vfloat 1.0 |] ))
      ("0000000100000000" ^ "3ff0000000000000");
    golden "cdr: bool is one byte" Encoding.cdr
      (fun m -> (Mint.bool_ m, Pres.Direct, Value.Vbool true))
      "01";
  ]

let fluke_goldens =
  [
    golden "fluke: little endian packed" Encoding.fluke
      (fun m ->
        ( Mint.struct_ m [ ("a", Mint.int32 m); ("b", Mint.int32 m) ],
          Pres.Struct [ ("a", Pres.Direct); ("b", Pres.Direct) ],
          Value.Vstruct [| Value.Vint 1; Value.Vint 2 |] ))
      "0100000002000000";
  ]

let mach_goldens =
  [
    golden "mach3: type descriptor precedes the datum" Encoding.mach3
      (fun m -> (Mint.int32 m, Pres.Direct, Value.Vint 7))
      (* 'MTDP' descriptor little-endian then the value *)
      "5044544d07000000";
  ]

(* Failure injection against *cached* decoders: Stub_opt memoizes
   decoder closures, so the decoder under attack here is a cache hit.
   Malformed input must raise the same typed errors as from a fresh
   decoder, and the closure must keep working on valid input
   afterwards (no state is poisoned by a failed decode). *)

let cached_failure_tests =
  let union_spec () =
    let m = Mint.create () in
    let seq =
      Mint.array m ~elem:(Mint.int32 m) ~min_len:0 ~max_len:(Some 8)
    in
    let u =
      Mint.union m ~discrim:(Mint.int32 m)
        ~cases:
          [
            { Mint.c_const = Mint.Cint 1L; c_body = Mint.int32 m };
            { Mint.c_const = Mint.Cint 2L; c_body = seq };
          ]
        ~default:None
    in
    let pres =
      Pres.Union
        {
          discrim_field = "_d";
          union_field = "_u";
          arms =
            [
              ("n", Pres.Direct);
              ( "xs",
                Pres.Counted_seq
                  { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
              );
            ];
          default_arm = None;
        }
    in
    (m, u, pres)
  in
  let cached_decoder ~enc m u pres =
    let droots = [ Stub_opt.Dvalue (u, pres) ] in
    (* compile twice: the one we attack is served from the cache *)
    let first = Stub_opt.compile_decoder ~enc ~mint:m ~named:[] droots in
    let dec = Stub_opt.compile_decoder ~enc ~mint:m ~named:[] droots in
    Alcotest.(check bool) "decoder came from the cache" true (first == dec);
    dec
  in
  let reader_of s = Mbuf.reader_of_bytes (Bytes.of_string s) in
  [
    test "cached decoder raises Short_buffer on every truncation" (fun () ->
        let m, u, pres = union_spec () in
        let enc = Encoding.xdr in
        let dec = cached_decoder ~enc m u pres in
        let enc_fn = Stub_opt.compile_encoder ~enc ~mint:m ~named:[]
            [ Plan_compile.Rvalue
                (Mplan.Rparam { index = 0; name = "u"; deref = false }, u, pres) ]
        in
        let buf = Mbuf.create 64 in
        enc_fn buf
          [| Value.Vunion
               { case = 1; discrim = Mint.Cint 2L;
                 payload = Value.Vint_array [| 10; 20; 30 |] } |];
        let bytes = Bytes.to_string (Mbuf.contents buf) in
        (* sanity: the full message decodes *)
        (match dec (reader_of bytes) with
        | [| Value.Vunion { case = 1; _ } |] -> ()
        | _ -> Alcotest.fail "expected the sequence arm back");
        (* every strict prefix fails with a typed error, never succeeds:
           the discriminator and the length header promise more bytes *)
        for cut = 0 to String.length bytes - 1 do
          match dec (reader_of (String.sub bytes 0 cut)) with
          | _ -> Alcotest.failf "truncation at %d decoded" cut
          | exception Mbuf.Short_buffer -> ()
          | exception Codec.Decode_error _ -> ()
        done);
    test "cached decoder rejects a bad union discriminator" (fun () ->
        let m, u, pres = union_spec () in
        let enc = Encoding.cdr in
        let dec = cached_decoder ~enc m u pres in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 9 (* no such case *);
        Mbuf.put_i32 buf ~be:true 7;
        (match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
        (* the same cached closure still decodes valid input *)
        let ok = Mbuf.create 16 in
        Mbuf.put_i32 ok ~be:true 1;
        Mbuf.put_i32 ok ~be:true 42;
        match dec (Mbuf.reader ok) with
        | [| Value.Vunion { case = 0; payload = Value.Vint 42; _ } |] -> ()
        | _ -> Alcotest.fail "cached decoder poisoned by failed decode");
    test "cached decoder rejects an oversized sequence length" (fun () ->
        let m, u, pres = union_spec () in
        let enc = Encoding.xdr in
        let dec = cached_decoder ~enc m u pres in
        let buf = Mbuf.create 64 in
        Mbuf.put_i32 buf ~be:true 2 (* the sequence arm *);
        Mbuf.put_i32 buf ~be:true 99 (* claims 99 > bound 8 *);
        for i = 1 to 99 do
          Mbuf.put_i32 buf ~be:true i
        done;
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
  ]

let suite =
  [
    ("wire:mbuf", mbuf_tests);
    ("wire:scatter-gather", sg_tests);
    ("wire:xdr-golden", xdr_goldens);
    ("wire:cdr-golden", cdr_goldens);
    ("wire:fluke-golden", fluke_goldens);
    ("wire:mach-golden", mach_goldens);
    ("wire:cached-decoder-failures", cached_failure_tests);
  ]
