(* Differential pinning of the plan-driven decoder (Dplan_compile +
   Stub_opt.decoder_of_dplan) against the two reference decode paths:
   the rpcgen-style engine (Stub_naive) and the interpretive engine
   (Stub_interp).

   For >= 1000 random (MINT, PRES) cases per encoding:

   1. Stub_opt's one encoder writes Stub_naive's bytes, and all three
      decoders recover the encoded value (Value.equal, which also
      equates a zero-copy view with its copied form), the plan decoder
      consuming the whole message;
   2. truncated prefixes behave identically in the plan and naive
      paths: both fail, or both succeed on the same value (a merged
      chunk check may surface Short_buffer *earlier* than the
      per-datum path, but never changes the outcome);
   3. a corrupted byte (malformed union discriminators, bad booleans,
      oversized counts, ...) keeps the two paths in agreement:
      fail together or decode the same value;
   4. with scatter-gather views on and the borrow threshold dropped to
      3 bytes, the view decode equals the copy decode, and
      materializing it yields an owned value that still compares equal.

   Unit tests below pin the specifics: Short_buffer injection mid-chunk,
   an unknown discriminator on a default-less union, the wire offset in
   the Opt_ptr error, zero-copy accounting on a large payload, and the
   decoder/plan cache hit rates on warm compilations. *)

let rng = Random.State.make [| 0xdec0de |]

let naive_config = Stub_naive.default_config

let encode enc (c : Test_engines.case) v =
  Test_engines.encode_with Test_engines.opt_encoder enc c
    (Test_engines.roots_of c) v

let naive_bytes enc c v =
  Test_engines.encode_with
    (Stub_naive.compile_encoder ~config:naive_config)
    enc c (Test_engines.roots_of c) v

let decoders enc (c : Test_engines.case) =
  let droots = Test_engines.droots_of c in
  ( Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots,
    Stub_naive.compile_decoder ~config:naive_config ~enc
      ~mint:c.Test_engines.mint ~named:c.Test_engines.named droots,
    Stub_interp.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots )

type outcome = Ok_value of Value.t | Failed

let run_decoder (d : Stub_opt.decoder) (wire : bytes) : outcome =
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

let decode_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let bytes = encode enc c v in
  let naive = naive_bytes enc c v in
  if bytes <> naive then
    QCheck.Test.fail_reportf "opt/naive bytes differ on %s:@.%s@.%s"
      c.Test_engines.label (Test_engines.hex bytes) (Test_engines.hex naive);
  let wire = Bytes.of_string bytes in
  let dec_plan, dec_naive, dec_interp = decoders enc c in
  (* 1. three-way agreement on well-formed input, which the plan
        decoder consumes whole *)
  let r = Mbuf.reader_of_bytes wire in
  let v_plan =
    match dec_plan r with
    | [| v' |] -> v'
    | _ | (exception (Mbuf.Short_buffer | Codec.Decode_error _)) ->
        QCheck.Test.fail_reportf "plan decode failed on %s"
          c.Test_engines.label
  in
  if not (Value.equal v_plan v) then
    QCheck.Test.fail_reportf "plan decode mismatch on %s:@.%a@.%a"
      c.Test_engines.label Value.pp v Value.pp v_plan;
  if Mbuf.remaining r <> 0 then
    QCheck.Test.fail_reportf "plan decode left %d bytes on %s"
      (Mbuf.remaining r) c.Test_engines.label;
  List.iter
    (fun (name, d) ->
      match run_decoder d wire with
      | Ok_value v' when Value.equal v' v_plan -> ()
      | out ->
          QCheck.Test.fail_reportf "plan/%s decode disagree on %s: %a"
            name c.Test_engines.label pp_outcome out)
    [ ("naive", dec_naive); ("interp", dec_interp) ];
  (* 2. truncation parity between the plan and naive paths *)
  let n = Bytes.length wire in
  List.iter
    (fun cut ->
      if cut >= 0 && cut < n then begin
        let prefix = Bytes.sub wire 0 cut in
        let a = run_decoder dec_plan prefix
        and b = run_decoder dec_naive prefix in
        if not (same_outcome a b) then
          QCheck.Test.fail_reportf
            "truncation at %d/%d disagrees on %s: plan %a, naive %a" cut n
            c.Test_engines.label pp_outcome a pp_outcome b
      end)
    [ n - 1; n / 2; n - 3 ];
  (* 3. corruption parity (hits union discriminators, bools, counts) *)
  if n > 0 then begin
    let corrupt = Bytes.copy wire in
    let at = Random.State.int rng n in
    Bytes.set corrupt at
      (Char.chr (Char.code (Bytes.get corrupt at) lxor (1 lsl Random.State.int rng 8)));
    let a = run_decoder dec_plan corrupt
    and b = run_decoder dec_naive corrupt in
    if not (same_outcome a b) then
      QCheck.Test.fail_reportf
        "corrupt byte %d disagrees on %s: plan %a, naive %a" at
        c.Test_engines.label pp_outcome a pp_outcome b
  end;
  (* 4. zero-copy views equal the copy decode, before and after
        materialization *)
  Test_sgwire.with_sg ~on:true ~threshold:3 (fun () ->
      let dec_view =
        Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
          ~named:c.Test_engines.named ~views:true (Test_engines.droots_of c)
      in
      match run_decoder dec_view wire with
      | Failed ->
          QCheck.Test.fail_reportf "view decode failed on %s"
            c.Test_engines.label
      | Ok_value vv ->
          if not (Value.equal vv v_plan) then
            QCheck.Test.fail_reportf "view/copy decode mismatch on %s:@.%a@.%a"
              c.Test_engines.label Value.pp v_plan Value.pp vv;
          if not (Value.equal (Value.materialize vv) v_plan) then
            QCheck.Test.fail_reportf "materialized view mismatch on %s"
              c.Test_engines.label);
  true

let qtest enc =
  let name = enc.Encoding.name ^ ": plan decode = naive = interp" in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name Test_engines.arbitrary_case
       (decode_prop enc))

(* -- integer rows ----------------------------------------------------- *)

(* A sequence of structs of integer leaves of 8, 16 or 32 bits, signed
   or unsigned, nested up to depth 2, with all leaves of one kind or of
   random kinds: whether it is [`Mixed] (two kinds or more) or [`All32]
   (every leaf one 32-bit kind), or neither. *)
let gen_rows_case st =
  let mint = Mint.create () in
  let kinds = [| (8, true); (8, false); (16, true); (16, false); (32, true); (32, false) |] in
  let one = Random.State.bool st and k0 = kinds.(Random.State.int st 6) in
  let used = ref [] and label = Buffer.create 16 in
  let rec gen depth =
    Buffer.add_string label "{";
    let fields =
      List.init (1 + Random.State.int st 3) (fun i ->
          let f =
            if depth < 2 && Random.State.int st 3 = 0 then gen (depth + 1)
            else begin
              let bits, signed = if one then k0 else kinds.(Random.State.int st 6) in
              used := (bits, signed) :: !used;
              Buffer.add_string label (Printf.sprintf "%s%d;" (if signed then "i" else "u") bits);
              (Mint.int_ mint ~bits ~signed, Pres.Direct)
            end
          in
          (Printf.sprintf "f%d" i, f))
    in
    Buffer.add_string label "}";
    ( Mint.struct_ mint (List.map (fun (n, (f, _)) -> (n, f)) fields),
      Pres.Struct (List.map (fun (n, (_, p)) -> (n, p)) fields) )
  in
  let elem, ep = gen 1 in
  let idx = Mint.array mint ~elem ~min_len:0 ~max_len:(Some 8) in
  let pres = Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = ep } in
  let kind =
    match List.sort_uniq compare !used with
    | [ (32, _) ] -> `All32
    | [ _ ] -> `One
    | _ -> `Mixed
  in
  ({ Test_engines.label = "seq" ^ Buffer.contents label; mint; named = []; idx; pres }, kind)

(* Row [i] of the boxed rows [v] spelled otherwise: its first leaf as a
   [Vchar] of the leaf's low byte, and its first struct member of
   [Vint]s that does not hold that leaf as a [Vint_array].  Returns the
   respelled value and the value naive is given for it, the leaf a
   [Vint] of that byte. *)
let respell (v : Value.t) i =
  match v with
  | Value.Varray rows when i < Array.length rows -> (
      match rows.(i) with
      | Value.Vstruct fs ->
          let leaf = ref None in
          let rec first path (fs : Value.t array) =
            Array.iteri
              (fun j f ->
                match f with
                | Value.Vint x when !leaf = None -> leaf := Some (List.rev (j :: path), x land 0xff)
                | Value.Vstruct sub -> first (j :: path) sub
                | _ -> ())
              fs
          in
          first [] fs;
          let rec set (fs : Value.t array) path x =
            let fs = Array.copy fs in
            (match path with
            | [ j ] -> fs.(j) <- x
            | j :: rest -> (
                match fs.(j) with
                | Value.Vstruct sub -> fs.(j) <- Value.Vstruct (set sub rest x)
                | _ -> ())
            | [] -> ());
            fs
          in
          let with_row row =
            let rows = Array.copy rows in
            rows.(i) <- Value.Vstruct row;
            Value.Varray rows
          in
          let path, byte = Option.value !leaf ~default:([], 0) in
          let mixed = set fs path (Value.Vchar (Char.chr byte)) in
          Array.iteri
            (fun j f ->
              match f with
              | Value.Vstruct leaves
                when List.hd (path @ [ -1 ]) <> j
                     && Array.for_all (function Value.Vint _ -> true | _ -> false) leaves
                     && not (Array.exists (function Value.Vint_array _ -> true | _ -> false) mixed) ->
                  mixed.(j) <- Value.Vint_array (Array.map Codec.as_int leaves)
              | _ -> ())
            fs;
          (with_row mixed, with_row (set fs path (Value.Vint byte)))
      | _ -> (v, v))
  | _ -> (v, v)

(* Stub_opt decodes a rows-shaped sequence to the value Stub_naive
   decodes, as rows exactly when every leaf is one kind (always, for
   32-bit leaves), and that value, rows or boxed, re-encodes to
   Stub_naive's bytes through Stub_opt, Stub_naive and Stub_interp.
   Stub_opt's cached encoder also stores the generated boxed value, the
   decoded value (rows, when they are), and a respelling of one row
   that it leaves to the loop body, into a dirty reused writer behind a
   0, 3 or 5-byte header: naive's bytes each time. *)
let rows_prop enc ((c : Test_engines.case), kind) =
  let mint = c.Test_engines.mint and named = [] in
  let v = Workload.random rng mint ~named c.Test_engines.idx c.Test_engines.pres in
  let want = naive_bytes enc c v in
  let droots = Test_engines.droots_of c and roots = Test_engines.roots_of c in
  let decode d =
    match run_decoder d (Bytes.of_string want) with
    | Ok_value x -> x
    | Failed -> QCheck.Test.fail_reportf "%s: decode failed" c.Test_engines.label
  in
  let got = decode (Stub_opt.compile_decoder ~enc ~mint ~named droots) in
  let naive = decode (Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named droots) in
  if not (Value.equal got naive && Value.equal naive v) then
    QCheck.Test.fail_reportf "%s: opt %a, naive %a" c.Test_engines.label Value.pp got Value.pp
      naive;
  (match (got, kind) with
  | Value.Vint_rows _, `Mixed -> QCheck.Test.fail_reportf "%s: mixed kinds as rows" c.Test_engines.label
  | Value.Varray _, `All32 -> QCheck.Test.fail_reportf "%s: 32-bit leaves boxed" c.Test_engines.label
  | _ -> ());
  let plan = Plan_cache.plan ~enc ~mint ~named roots in
  List.iter
    (fun (what, e) ->
      let buf = Mbuf.create 64 in
      e buf [| got |];
      let bytes = Bytes.to_string (Mbuf.contents buf) in
      if bytes <> want then
        QCheck.Test.fail_reportf "%s, %s re-encode: %s, naive %s" c.Test_engines.label what
          (Test_engines.hex bytes) (Test_engines.hex want))
    [
      ("opt", Stub_opt.encoder_of_plan ~enc plan);
      ("naive", Stub_naive.compile_encoder ~config:naive_config ~enc ~mint ~named roots);
      ("interp", Stub_interp.compile_encoder ~enc ~mint ~named roots);
    ];
  let e = Stub_opt.compile_encoder ~enc ~mint ~named roots and w = Mbuf.create 16 in
  let n = match v with Value.Varray rows -> Array.length rows | _ -> 0 in
  let mixed, canon = respell v (Random.State.int rng (max 1 n)) in
  List.iter
    (fun (what, value, expect) ->
      List.iter
        (fun head ->
          let got = Test_engines.encode_behind w ~head (fun w -> e w [| value |]) in
          if got <> expect then
            QCheck.Test.fail_reportf "%s, %s behind %d bytes: %s, naive %s (%a)" c.Test_engines.label
              what head (Test_engines.hex got) (Test_engines.hex expect) Value.pp value)
        [ 0; 3; 5 ])
    [ ("boxed", v, want); ("decoded", got, want); ("respelled", mixed, naive_bytes enc c canon) ];
  true

let rows_encodings =
  Encoding.[ xdr; cdr; mach3; fluke; msgpack; cbor ]

let property_tests =
  List.map qtest
    [
      Encoding.xdr; Encoding.cdr; Encoding.mach3; Encoding.fluke;
      (* the value-dependent formats run the same 1000-case
         differential: variable headers must truncate and corrupt with
         the same typed failures as the fixed layouts *)
      Encoding.msgpack; Encoding.cbor;
    ]
  @ List.map
      (fun enc ->
        QCheck_alcotest.to_alcotest
          (QCheck.Test.make ~count:300
             ~name:(enc.Encoding.name ^ ": int rows decode as naive, re-encode as boxed")
             (QCheck.make ~print:(fun (c, _) -> c.Test_engines.label) gen_rows_case)
             (rows_prop enc)))
      rows_encodings

(* -- targeted failure injection --------------------------------------- *)

let int4_struct () =
  let mint = Mint.create () in
  let i32 = Mint.int32 mint in
  let idx =
    Mint.struct_ mint [ ("a", i32); ("b", i32); ("c", i32); ("d", i32) ]
  in
  let pres =
    Pres.Struct
      [ ("a", Pres.Direct); ("b", Pres.Direct); ("c", Pres.Direct);
        ("d", Pres.Direct) ]
  in
  (mint, idx, pres)

(* -- integer-array kernels at their edges ----------------------------- *)

(* sequence<rect> of 32-bit coordinates, rect = { {x; y}; {x; y} } *)
let rect_seq_case ~signed =
  let mint = Mint.create () in
  let i = Mint.int_ mint ~bits:32 ~signed in
  let pair = Mint.struct_ mint [ ("x", i); ("y", i) ] in
  let rect = Mint.struct_ mint [ ("min", pair); ("max", pair) ] in
  let pair_p = Pres.Struct [ ("x", Pres.Direct); ("y", Pres.Direct) ] in
  let pres =
    Pres.Counted_seq
      { len_field = "len"; buf_field = "val"; elem = Pres.Struct [ ("min", pair_p); ("max", pair_p) ] }
  in
  let label = Printf.sprintf "%s rects" (if signed then "signed" else "unsigned") in
  { Test_engines.label; mint; named = []; idx = Mint.array mint ~elem:rect ~min_len:0 ~max_len:None; pres }

let int_array_case ~bits ~signed ~counted ~len =
  let mint = Mint.create () in
  let elem = Mint.int_ mint ~bits ~signed in
  let idx, pres =
    if counted then
      ( Mint.array mint ~elem ~min_len:0 ~max_len:(Some 8),
        Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct } )
    else (Mint.fixed_array mint ~elem ~len, Pres.Fixed_array Pres.Direct)
  in
  let label =
    Printf.sprintf "%d-bit %s %s" bits
      (if signed then "signed" else "unsigned")
      (if counted then "sequence" else "array")
  in
  { Test_engines.label; mint; named = []; idx; pres }

(* [wire_of enc] decodes to [v] in Stub_naive and every other decoder;
   Stub_opt's encoder writes Stub_naive's bytes for [v] and for
   Stub_opt's decode of it (rows, for rects); and every relay
   between two of [encs], whether it converts, swaps or copies the run,
   writes the bytes Stub_naive writes for [v]. *)
let check_int_array_engines (c : Test_engines.case) v ~encs ~wire_of =
  let mint = c.Test_engines.mint and named = [] in
  let droots = Test_engines.droots_of c and roots = Test_engines.roots_of c in
  let decoded src =
    let naive =
      Stub_naive.compile_decoder ~config:naive_config ~enc:src ~mint ~named droots
    in
    let want = run_decoder naive (wire_of src) in
    let dplan =
      Plan_cache.dplan ~enc:src ~mint ~named
        (List.map Stub_opt.to_dplan_droot droots)
    in
    List.iter
      (fun (name, d) ->
        let got = run_decoder d (wire_of src) in
        if not (same_outcome got want) then
          Alcotest.failf "%s %s, %s decoder: %a, naive %a" src.Encoding.name
            c.Test_engines.label name pp_outcome got pp_outcome want)
      [
        ("plan", Stub_opt.compile_decoder ~enc:src ~mint ~named droots);
        ("uncached plan", Stub_opt.decoder_of_dplan ~enc:src dplan);
        ("interp", Stub_interp.compile_decoder ~enc:src ~mint ~named droots);
      ];
    if not (same_outcome want (Ok_value v)) then
      Alcotest.failf "%s %s: naive decode %a" src.Encoding.name
        c.Test_engines.label pp_outcome want;
    match run_decoder (Stub_opt.compile_decoder ~enc:src ~mint ~named droots) (wire_of src) with
    | Ok_value d -> d
    | Failed -> v
  in
  List.iter
    (fun src ->
      let dv = decoded src in
      List.iter
        (fun dst ->
          let want = naive_bytes dst c v in
          let encode what e =
            List.iter
              (fun (of_what, v) ->
                let buf = Mbuf.create 64 in
                e buf [| v |];
                let got = Bytes.to_string (Mbuf.contents buf) in
                if got <> want then
                  Alcotest.failf "%s %s, %s of %s: %s, naive %s" dst.Encoding.name
                    c.Test_engines.label what of_what (Test_engines.hex got)
                    (Test_engines.hex want))
              [ ("the value", v); (src.Encoding.name ^ " decode", dv) ]
          in
          let plan = Plan_cache.plan ~enc:dst ~mint ~named roots in
          encode "encoder" (Stub_opt.encoder_of_plan ~enc:dst plan);
          let fplan =
            Stub_forward.forward_plan ~src ~dst ~mint ~named
              (List.map Stub_opt.to_dplan_droot droots) roots
          in
          let w = Mbuf.create 64 in
          Stub_forward.forward_of_plan fplan (Mbuf.reader_of_bytes (wire_of src)) w;
          let got = Bytes.to_string (Mbuf.contents w) in
          if got <> want then
            Alcotest.failf "%s->%s %s relay: %s, naive %s" src.Encoding.name
              dst.Encoding.name c.Test_engines.label (Test_engines.hex got)
              (Test_engines.hex want))
        encs)
    encs

let narrow_test () =
  (* XDR widens shorts to 4-byte words.  A word whose high half is not
     its element's extension still decodes, to its low [bits] bits sign-
     or zero-extended, in the fast integer-array paths exactly as in the
     per-element reference engines. *)
  let words = [ 0x00000007; 0xff01fffd ] in
  let xdr_wire ~counted =
    let buf = Mbuf.create 16 in
    if counted then Mbuf.put_i32 buf ~be:true (List.length words);
    List.iter (fun w -> Mbuf.put_i32 buf ~be:true w) words;
    Mbuf.contents buf
  in
  List.iter
    (fun (bits, signed, expect) ->
      List.iter
        (fun counted ->
          let c = int_array_case ~bits ~signed ~counted ~len:2 in
          let v = Value.Vint_array expect in
          (* the relays' 16-bit shapes: xdr -> xdr converts 4-byte words,
             cdr -> xdr widens 2-byte elements through the boxed path *)
          check_int_array_engines c v
            ~encs:[ Encoding.xdr; Encoding.cdr; Encoding.fluke ]
            ~wire_of:(fun enc ->
              if enc == Encoding.xdr then xdr_wire ~counted
              else Bytes.of_string (naive_bytes enc c v)))
        [ true; false ])
    [ (16, true, [| 7; -3 |]); (16, false, [| 7; 0xfffd |]) ];
  (* the 32-bit extremes under both byte orders, decoded and encoded:
     the four read loops, the swapped and native store loops, the chunk
     field runs of a fixed array, and the relays' swap runs *)
  List.iter
    (fun (signed, expect) ->
      List.iter
        (fun counted ->
          let c = int_array_case ~bits:32 ~signed ~counted ~len:4 in
          let v = Value.Vint_array expect in
          check_int_array_engines c v
            ~encs:[ Encoding.xdr; Encoding.cdr; Encoding.mach3; Encoding.fluke ]
            ~wire_of:(fun enc -> Bytes.of_string (naive_bytes enc c v)))
        [ true; false ])
    [
      (true, [| 0; 0x7fffffff; -0x80000000; -1 |]);
      (false, [| 0; 0x7fffffff; 0x80000000; 0xffffffff |]);
    ];
  (* rects of those coordinates: rows decoded by the contiguous and the
     strided (mach3) kernels, and encoded from rows *)
  List.iter
    (fun (signed, xs) ->
      let c = rect_seq_case ~signed in
      let rect a b c d =
        Value.Vstruct
          [| Value.Vstruct [| Value.Vint a; Value.Vint b |]; Value.Vstruct [| Value.Vint c; Value.Vint d |] |]
      in
      let v = Value.Varray [| rect xs.(0) xs.(1) xs.(2) xs.(3); rect xs.(3) xs.(2) xs.(1) xs.(0) |] in
      check_int_array_engines c v
        ~encs:[ Encoding.xdr; Encoding.cdr; Encoding.mach3; Encoding.fluke ]
        ~wire_of:(fun enc -> Bytes.of_string (naive_bytes enc c v)))
    [
      (true, [| 0; 0x7fffffff; -0x80000000; -1 |]);
      (false, [| 0; 0x7fffffff; 0x80000000; 0xffffffff |]);
    ]

(* A recursive plan (marshal and unmarshal subroutines): Stub_opt
   writes Stub_naive's bytes, decodes them back, and fails on every
   truncation exactly when Stub_naive does. *)
let recursive_test () =
  let c = Test_engines.linked_list_case () in
  let v = Test_engines.list_value 7 in
  List.iter
    (fun enc ->
      let wire = encode enc c v in
      Alcotest.(check string) (enc.Encoding.name ^ ": bytes = naive")
        (Test_engines.hex (naive_bytes enc c v)) (Test_engines.hex wire);
      let wire = Bytes.of_string wire in
      let dec_plan, dec_naive, _ = decoders enc c in
      Alcotest.(check bool) (enc.Encoding.name ^ ": roundtrip") true
        (same_outcome (run_decoder dec_plan wire) (Ok_value v));
      for cut = 0 to Bytes.length wire - 1 do
        let prefix = Bytes.sub wire 0 cut in
        if not (same_outcome (run_decoder dec_plan prefix) (run_decoder dec_naive prefix))
        then Alcotest.failf "%s: truncation at %d: plan and naive disagree" enc.Encoding.name cut
      done)
    Encoding.all

let failure_tests =
  [
    Alcotest.test_case "recursive plan: bytes and truncations as naive" `Quick
      recursive_test;
    Alcotest.test_case "Short_buffer mid-chunk: plan and naive both fail"
      `Quick (fun () ->
        (* four int32 fields compile to ONE chunk with one 16-byte
           check; cutting at byte 6 lands inside it *)
        let mint, idx, pres = int4_struct () in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 32 in
        for i = 1 to 4 do
          Mbuf.put_i32 buf ~be:true (i * 7)
        done;
        let wire = Bytes.sub (Mbuf.contents buf) 0 6 in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        let dec_plan = Stub_opt.compile_decoder ~enc ~mint ~named:[] droots in
        let dec_naive =
          Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[] droots
        in
        (match dec_plan (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "plan decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
        match dec_naive (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "naive decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
    Alcotest.test_case "unknown union discriminator is rejected by both paths"
      `Quick (fun () ->
        let mint = Mint.create () in
        let discrim = Mint.int32 mint in
        let idx =
          Mint.union mint ~discrim
            ~cases:
              [
                { Mint.c_const = Mint.Cint 0L; c_body = Mint.int32 mint };
                { Mint.c_const = Mint.Cint 1L; c_body = Mint.bool_ mint };
              ]
            ~default:None
        in
        let pres =
          Pres.Union
            {
              discrim_field = "_d";
              union_field = "_u";
              arms = [ ("a0", Pres.Direct); ("a1", Pres.Direct) ];
              default_arm = None;
            }
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 999 (* no such arm *);
        Mbuf.put_i32 buf ~be:true 42;
        let wire = Mbuf.contents buf in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        List.iter
          (fun (name, d) ->
            match d (Mbuf.reader_of_bytes wire) with
            | (_ : Value.t array) ->
                Alcotest.fail (name ^ " accepted an unknown discriminator")
            | exception Codec.Decode_error _ -> ())
          [
            ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
            ("naive", Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[] droots);
          ]);
    Alcotest.test_case "sub-32-bit array elements narrow alike in every engine"
      `Quick narrow_test;
    Alcotest.test_case "Opt_ptr error carries the wire offset" `Quick
      (fun () ->
        (* an int32 ahead of the optional puts its count word at byte 4 *)
        let mint = Mint.create () in
        let i32 = Mint.int32 mint in
        let opt =
          Mint.array mint ~elem:i32 ~min_len:0 ~max_len:(Some 1)
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 5;
        Mbuf.put_i32 buf ~be:true 2 (* invalid count *);
        let wire = Mbuf.contents buf in
        let droots =
          [
            Stub_opt.Dvalue (i32, Pres.Direct);
            Stub_opt.Dvalue (opt, Pres.Opt_ptr Pres.Direct);
          ]
        in
        let expect_offset name d =
          match d (Mbuf.reader_of_bytes wire) with
          | (_ : Value.t array) ->
              Alcotest.fail (name ^ " accepted an invalid optional count")
          | exception Codec.Decode_error msg ->
              Alcotest.(check string)
                (name ^ " message")
                "optional count 2 at byte 4" msg
        in
        expect_offset "plan"
          (Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
        expect_offset "naive"
          (Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
             ~named:[] droots));
  ]

(* -- zero-copy accounting --------------------------------------------- *)

let view_tests =
  [
    Alcotest.test_case "large payload decodes as a view, copying nothing"
      `Quick (fun () ->
        Test_sgwire.with_sg ~on:true ~threshold:64 (fun () ->
            let mint = Mint.create () in
            let str = Mint.string_ mint ~max_len:None in
            let enc = Encoding.xdr in
            let payload = String.make 1024 'x' in
            let droots = [ Stub_opt.Dvalue (str, Pres.Terminated_string) ] in
            let buf = Mbuf.create 2048 in
            Stub_opt.compile_encoder ~enc ~mint ~named:[]
              [
                Plan_compile.Rvalue
                  ( Mplan.Rparam { index = 0; name = "p"; deref = false },
                    str, Pres.Terminated_string );
              ]
              buf
              [| Value.Vstring payload |];
            let wire = Mbuf.contents buf in
            let dec_view =
              Stub_opt.compile_decoder ~enc ~mint ~named:[] ~views:true droots
            in
            Mbuf.reset_reader_stats ();
            let out = dec_view (Mbuf.reader_of_bytes wire) in
            let st = Mbuf.reader_stats () in
            Alcotest.(check int) "payload bytes copied" 0 st.Mbuf.rbytes_copied;
            Alcotest.(check bool)
              "payload bytes viewed" true
              (st.Mbuf.rbytes_viewed >= 1024);
            (match out.(0) with
            | Value.Vstring_view v ->
                Alcotest.(check string)
                  "view contents" payload (Value.string_of_view v)
            | _ -> Alcotest.fail "expected a Vstring_view");
            match Value.materialize out.(0) with
            | Value.Vstring s ->
                Alcotest.(check string) "materialized contents" payload s
            | _ -> Alcotest.fail "materialize did not yield an owned string"));
  ]

(* -- decoder cache ----------------------------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "warm decoder compilations hit both caches" `Quick
      (fun () ->
        Plan_cache.reset_all ();
        let mint, idx, pres = int4_struct () in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        for _ = 1 to 10 do
          ignore
            (Stub_opt.compile_decoder ~enc:Encoding.xdr ~mint ~named:[] droots
              : Stub_opt.decoder)
        done;
        (* the plan cache sits behind the decoder-closure cache, so hit
           it directly as dump-plan and the C back ends do *)
        for _ = 1 to 10 do
          ignore
            (Plan_cache.dplan ~enc:Encoding.xdr ~mint ~named:[]
               [ Dplan_compile.Dvalue (idx, pres) ]
              : Dplan.plan)
        done;
        let stats name =
          match List.assoc_opt name (Plan_cache.all_stats ()) with
          | Some st -> st
          | None -> Alcotest.fail ("no cache registered under " ^ name)
        in
        let dec = stats "stub_opt.decoder" in
        Alcotest.(check int) "decoder misses" 1 dec.Plan_cache.misses;
        Alcotest.(check int) "decoder hits" 9 dec.Plan_cache.hits;
        let dp = stats "dplan" in
        (* one miss from the decoder compilation, then 10 direct hits *)
        Alcotest.(check int) "dplan misses" 1 dp.Plan_cache.misses;
        Alcotest.(check int) "dplan hits" 10 dp.Plan_cache.hits);
  ]

(* A fixed array of shorts inside a sequence of structs: under msgpack
   and CBOR each short takes 1 to 3 bytes, so the element loop has no
   static advance and must not ride a hoisted reservation (it once
   reserved 17 bytes an element and rejected well-formed messages with
   Short_buffer). *)
let s3_idl =
  "struct s1 { double f; }; struct s3 { short a[2]; short b[2]; s1 c; };\n\
   typedef sequence<s3> s3_seq; interface T { void f(in s3_seq x); };"

let verify_config = { (Opt_config.default ()) with Opt_config.verify = true }

let selfdesc_array_tests =
  let ms =
    lazy
      (Paper_fixtures.request_spec
         (Presgen_corba.generate (Corba_parser.parse ~file:"s3.idl" s3_idl) [ "T" ])
         ~op:"f")
  in
  let elem a b =
    Value.Vstruct
      [| Value.Vint_array a; Value.Vint_array b; Value.Vstruct [| Value.Vfloat 1.5 |] |]
  in
  let v =
    Value.Varray [| elem [| 1; 2 |] [| 3; 4 |]; elem [| -300; 7 |] [| 0; 32767 |] |]
  in
  List.map
    (fun enc ->
      Alcotest.test_case
        (Printf.sprintf "short arrays in a sequence of structs (%s)" enc.Encoding.name)
        `Quick (fun () ->
          let ms = Lazy.force ms in
          let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
          let w = Mbuf.create 64 in
          (Stub_opt.compile_encoder ~config:verify_config ~enc ~mint ~named
             ms.Paper_fixtures.ms_roots)
            w [| v |];
          let wire = Mbuf.contents w in
          let opt =
            Stub_opt.compile_decoder ~config:verify_config ~enc ~mint ~named
              ms.Paper_fixtures.ms_droots
          in
          let naive =
            Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named
              ms.Paper_fixtures.ms_droots
          in
          let got = run_decoder opt wire in
          Alcotest.(check bool) "the optimized decoder accepts the message" true
            (got <> Failed);
          Alcotest.(check bool) "and agrees with the naive decoder" true
            (same_outcome got (run_decoder naive wire))))
    [ Encoding.msgpack; Encoding.cbor ]
  @ [
      Alcotest.test_case "verifier rejects a reservation over var atom arrays"
        `Quick (fun () ->
          let plan var =
            let a16 =
              { Mplan.kind = Encoding.Kint { bits = 16; signed = true }; size = 2;
                align = 1 }
            in
            {
              Dplan.d_nslots = 1;
              d_ops =
                [
                  Dplan.D_loop
                    {
                      count = Dplan.Dc_len { min_len = 0; max_len = None; what = "s" };
                      ensure = Some 4;
                      elem_min = 2;
                      frame =
                        {
                          Dplan.f_nslots = 1;
                          f_ops =
                            [
                              Dplan.D_get_atom_array
                                { count = Dplan.Dc_fixed 2; atom = a16; var; slot = 0 };
                            ];
                          f_shape = Dplan.Sh_slot 0;
                        };
                      slot = 0;
                    };
                ];
              d_shapes = [ Dplan.Sh_slot 0 ];
              d_subs = [];
            }
          in
          Alcotest.(check bool) "fixed-width elements: exact" true
            (Plan_verify.check_dplan (plan false) = Ok ());
          Alcotest.(check bool) "value-dependent elements: rejected" true
            (Plan_verify.check_dplan (plan true) <> Ok ()));
    ]

(* -- window edges --------------------------------------------------- *)

(* The in-window kernels (Codec.read_i32s, the msgpack/CBOR integer run)
   and every chunk check must decode a message cut into segments at any
   byte exactly as they decode it whole: the same value, or the same
   exception on a truncated prefix. *)

type edge_outcome = Decoded of Value.t | Raised of string

let edge_outcome d r =
  match d r with
  | [| v |] -> Decoded v
  | _ -> Raised "arity"
  | exception Mbuf.Short_buffer -> Raised "Short_buffer"
  | exception Codec.Decode_error _ -> Raised "Decode_error"

let pp_edge fmt = function
  | Decoded v -> Format.fprintf fmt "ok %a" Value.pp v
  | Raised e -> Format.pp_print_string fmt e

(* a reader over [wire.[0 .. len)] whose segments end at [cuts], each
   segment a copy of its own, so nothing past a window's end is
   readable *)
let segmented ?(len = -1) (wire : bytes) cuts =
  let len = if len < 0 then Bytes.length wire else len in
  let w = Mbuf.create 16 in
  let piece a b = Mbuf.put_borrow_bytes w (Bytes.sub wire a (b - a)) 0 (b - a) in
  let prev =
    List.fold_left
      (fun prev c ->
        if c > prev && c < len then begin
          piece prev c;
          c
        end
        else prev)
      0 (List.sort_uniq compare cuts)
  in
  if len > prev then piece prev len;
  Mbuf.reader w

let random_cuts n =
  if n < 2 then []
  else if Random.State.int rng 4 = 0 then List.init (n - 1) (fun i -> i + 1)
  else List.init (1 + Random.State.int rng 8) (fun _ -> 1 + Random.State.int rng (n - 1))

let window_edge_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let wire = Bytes.of_string (encode enc c v) in
  let d =
    Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named (Test_engines.droots_of c)
  in
  let n = Bytes.length wire in
  List.iter
    (fun len ->
      let cuts = random_cuts len in
      let whole = edge_outcome d (Mbuf.reader_of_bytes ~len wire)
      and cut = edge_outcome d (segmented ~len wire cuts) in
      let same =
        match (whole, cut) with
        | Decoded a, Decoded b -> Value.equal a b
        | Raised a, Raised b -> a = b
        | Decoded _, Raised _ | Raised _, Decoded _ -> false
      in
      if not same then
        QCheck.Test.fail_reportf
          "%s, %d/%d bytes cut at [%s]: whole %a, segmented %a"
          c.Test_engines.label len n
          (String.concat ";" (List.map string_of_int cuts))
          pp_edge whole pp_edge cut;
      match whole with
      | Decoded x when len = n && not (Value.equal x v) ->
          QCheck.Test.fail_reportf "%s: whole decode %a" c.Test_engines.label
            pp_edge whole
      | Raised _ when len = n ->
          QCheck.Test.fail_reportf "%s: whole decode %a" c.Test_engines.label
            pp_edge whole
      | Decoded _ | Raised _ -> ())
    [ n; (if n > 0 then Random.State.int rng n else 0) ];
  true

let window_edge_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:300
           ~name:(enc.Encoding.name ^ ": segmented decode = contiguous decode")
           Test_engines.arbitrary_case (window_edge_prop enc)))
    Encoding.all
  @ [
      Alcotest.test_case "rect rows decode alike cut anywhere" `Quick (fun () ->
          (* the rows kernels' one check gathers a run cut across
             segments, whole or truncated, as the boxed loops did *)
          List.iter
            (fun enc ->
              List.iter
                (fun signed ->
                  for _ = 1 to 100 do
                    ignore (window_edge_prop enc (rect_seq_case ~signed))
                  done)
                [ true; false ])
            rows_encodings);
      Alcotest.test_case "read_i32s narrows sub-32-bit words across a cut"
        `Quick (fun () ->
          (* the words of the sign-extension fix (a high half that is
             not the element's extension still narrows to the low bits),
             then the 32-bit extremes through each of the four 32-bit
             loops *)
          List.iter
            (fun be ->
              List.iter
                (fun (words, cases) ->
                  let wire =
                    let buf = Mbuf.create 16 in
                    List.iter (Mbuf.put_i32 buf ~be) words;
                    Mbuf.contents buf
                  in
                  let n = List.length words in
                  List.iter
                    (fun (bits, signed, expect) ->
                      List.iter
                        (fun (how, r) ->
                          let got = Codec.read_i32s ~be ~signed ~bits r n in
                          Alcotest.(check (array int))
                            (Printf.sprintf "%s %d-bit %s, %s" (if be then "BE" else "LE")
                               bits (if signed then "signed" else "unsigned") how)
                            expect got;
                          Alcotest.(check int) "whole run consumed" 0 (Mbuf.remaining r))
                        [
                          ("contiguous", Mbuf.reader_of_bytes wire);
                          ("cut inside the second word", segmented wire [ 5 ]);
                          ("cut at every byte", segmented wire (List.init (4 * n - 1) succ));
                        ])
                    cases)
                [
                  ( [ 0x00000007; 0xff01fffd ],
                    [
                      (16, true, [| 7; -3 |]);
                      (16, false, [| 7; 0xfffd |]);
                      (8, true, [| 7; -3 |]);
                      (8, false, [| 7; 0xfd |]);
                      (32, false, [| 7; 0xff01fffd |]);
                      (32, true, [| 7; 0xff01fffd - 0x1_0000_0000 |]);
                    ] );
                  ( [ 0; 0x7fffffff; 0x80000000; 0xffffffff ],
                    [
                      (32, true, [| 0; 0x7fffffff; -0x80000000; -1 |]);
                      (32, false, [| 0; 0x7fffffff; 0x80000000; 0xffffffff |]);
                    ] );
                ])
            [ true; false ]);
      Alcotest.test_case "non-minimal head: the run rejects it as one read does"
        `Quick (fun () ->
          let mint = Mint.create () in
          let idx =
            Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:None
          in
          let pres =
            Pres.Counted_seq
              { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
          in
          List.iter
            (fun (enc, head, bad, want) ->
              let vcc = Option.get enc.Encoding.var in
              let wire = Bytes.of_string (head ^ "\x01" ^ bad ^ "\x03") in
              let d =
                Stub_opt.compile_decoder ~enc ~mint ~named:[]
                  [ Stub_opt.Dvalue (idx, pres) ]
              in
              let one =
                match
                  Encoding.var_get_int vcc (Encoding.Kint { bits = 32; signed = true })
                    (Mbuf.reader_of_bytes (Bytes.of_string bad))
                with
                | _ -> "accepted"
                | exception Codec.Decode_error m -> m
              in
              Alcotest.(check string) (enc.Encoding.name ^ ": one read") want one;
              List.iter
                (fun (how, r) ->
                  match d r with
                  | _ -> Alcotest.failf "%s %s: accepted a non-minimal head" enc.Encoding.name how
                  | exception Codec.Decode_error m ->
                      Alcotest.(check string) (enc.Encoding.name ^ ": " ^ how) want m)
                [
                  ("in the window", Mbuf.reader_of_bytes wire);
                  ("cut inside the head", segmented wire [ String.length head + 2 ]);
                ])
            [
              (Encoding.msgpack, "\x93", "\xcc\x05", "msgpack: non-minimal uint8");
              (Encoding.cbor, "\x83", "\x18\x05", "cbor: non-minimal argument in head 0x18");
            ]);
    ]

(* -- the two spellings of rows ---------------------------------------- *)

(* struct { char c; rect r[3]; }: the rows loop starts one byte into
   the struct, so its kernel aligns first; boxed and as decoded rows it
   stores naive's bytes behind a 0, 3 or 5-byte header, in all six
   encodings. *)
let unaligned_rows_test () =
  let c = rect_seq_case ~signed:true in
  let mint = c.Test_engines.mint in
  let rect = match Mint.get mint c.Test_engines.idx with Mint.Array { elem; _ } -> elem | _ -> assert false in
  let rect_p = match c.Test_engines.pres with Pres.Counted_seq { elem; _ } -> elem | _ -> assert false in
  let idx = Mint.struct_ mint [ ("c", Mint.char8 mint); ("r", Mint.fixed_array mint ~elem:rect ~len:3) ] in
  let pres = Pres.Struct [ ("c", Pres.Direct); ("r", Pres.Fixed_array rect_p) ] in
  let s = { c with Test_engines.idx; pres } in
  let corner x = Value.Vstruct [| Value.Vint x; Value.Vint (-x) |] in
  let v =
    Value.Vstruct
      [| Value.Vchar 'c'; Value.Varray (Array.init 3 (fun i -> Value.Vstruct [| corner i; corner (i + 7) |])) |]
  in
  List.iter
    (fun enc ->
      let want = naive_bytes enc s v and w = Mbuf.create 16 in
      let e = Stub_opt.compile_encoder ~enc ~mint ~named:[] (Test_engines.roots_of s) in
      let rows =
        match run_decoder (Stub_opt.compile_decoder ~enc ~mint ~named:[] (Test_engines.droots_of s)) (Bytes.of_string want) with
        | Ok_value x -> x
        | Failed -> Alcotest.failf "%s: decode failed" enc.Encoding.name
      in
      List.iter
        (fun (what, value) ->
          List.iter
            (fun head ->
              Alcotest.(check string)
                (Printf.sprintf "%s %s behind %d bytes" enc.Encoding.name what head)
                (Test_engines.hex want)
                (Test_engines.hex (Test_engines.encode_behind w ~head (fun w -> e w [| value |]))))
            [ 0; 3; 5 ])
        [ ("boxed", v); ("decoded", rows) ])
    Encoding.all

(* A rows loop's element not spelled as the row (a rect with one
   corner, a corner with one coordinate, a string coordinate) is left
   to the loop body wherever it lies, and raises what Stub_naive
   raises, in all six encodings. *)
let malformed_row_test () =
  let c = rect_seq_case ~signed:true in
  let mint = c.Test_engines.mint and roots = Test_engines.roots_of c in
  let corner x = Value.Vstruct [| Value.Vint x; Value.Vint (x + 1) |] in
  let rect x = Value.Vstruct [| corner x; corner (x + 2) |] in
  List.iter
    (fun enc ->
      let opt = Stub_opt.compile_encoder ~enc ~mint ~named:[] roots
      and naive = Stub_naive.compile_encoder ~config:naive_config ~enc ~mint ~named:[] roots in
      List.iter
        (fun (what, row) ->
          List.iter
            (fun at ->
              let v = Value.Varray (Array.init 5 (fun i -> if i = at then row else rect (10 * i))) in
              let outcome e =
                match e (Mbuf.create 16) [| v |] with
                | () -> "stored"
                | exception Invalid_argument m -> m
              in
              let want = outcome naive in
              if want = "stored" then Alcotest.failf "naive stored %s" what;
              Alcotest.(check string)
                (Printf.sprintf "%s: %s at %d" enc.Encoding.name what at)
                want (outcome opt))
            [ 0; 2; 4 ])
        [
          ("a rect with one corner", Value.Vstruct [| corner 1 |]);
          ("a corner with one coordinate", Value.Vstruct [| corner 1; Value.Vstruct [| Value.Vint 3 |] |]);
          ( "a string coordinate",
            Value.Vstruct [| corner 1; Value.Vstruct [| Value.Vint 3; Value.Vstring "4" |] |] );
        ])
    Encoding.all

let value_rows_test () =
  let pair = Value.Rstruct [| Value.Rint; Value.Rint |] in
  let rect = Value.Rstruct [| pair; pair |] in
  let rows shape ints = Value.Vint_rows { shape; ints } in
  let r = rows rect [| 1; 2; 3; 4; 5; -6; 7; 0xffffffff |] in
  let vs l = Value.Vstruct (Array.of_list (List.map (fun i -> Value.Vint i) l)) in
  let boxed =
    Value.Varray
      [|
        Value.Vstruct [| vs [ 1; 2 ]; vs [ 3; 4 ] |]; Value.Vstruct [| vs [ 5; -6 ]; vs [ 7; 0xffffffff ] |];
      |]
  in
  let check what want got = Alcotest.(check bool) what want got in
  check "boxed spells the rows" true (Value.boxed r = boxed);
  check "rows = their boxed spelling" true (Value.equal r boxed && Value.equal boxed r);
  check "rows = the same rows" true (Value.equal r (rows rect (Array.copy [| 1; 2; 3; 4; 5; -6; 7; 0xffffffff |])));
  check "one int differs" false (Value.equal r (rows rect [| 1; 2; 3; 4; 5; -6; 7; 8 |]));
  check "same ints, another shape" false
    (Value.equal r (rows (Value.Rstruct [| Value.Rint; Value.Rint; Value.Rint; Value.Rint |]) [| 1; 2; 3; 4; 5; -6; 7; 0xffffffff |]));
  check "same ints, flat shape vs boxed" false
    (Value.equal (rows (Value.Rstruct [| Value.Rint; pair; Value.Rint |]) [| 1; 2; 3; 4; 5; -6; 7; 0xffffffff |]) boxed);
  check "empty rows = the empty array" true (Value.equal (rows rect [||]) (Value.Varray [||]));
  check "empty rows box to the empty array" true (Value.boxed (rows pair [||]) = Value.Varray [||]);
  check "boxing is the identity on boxed values" true (Value.boxed boxed == boxed);
  check "rows are view-free" true (Value.materialize r == r);
  Alcotest.(check string) "printed boxed" (Format.asprintf "%a" Value.pp boxed)
    (Format.asprintf "%a" Value.pp r);
  Alcotest.(check int) "byte size" 32 (Value.byte_size r)

(* -- how frames are built ------------------------------------------ *)

(* Hand-written plans reach the frame builds the compiler rarely emits:
   a top frame whose roots read out of wire order, and one lone chunk
   read in any order.  Every build must decode the same values. *)
let frame_build_test () =
  let i32 = { Mplan.kind = Encoding.Kint { bits = 32; signed = true }; size = 4; align = 4 } in
  let chunk slots =
    Dplan.D_chunk
      {
        size = 4 * List.length slots;
        items = List.mapi (fun k slot -> Dplan.Dit_atom { off = 4 * k; atom = i32; slot }) slots;
        check = true;
      }
  in
  let wire =
    let buf = Mbuf.create 16 in
    List.iter (Mbuf.put_i32 buf ~be:true) [ 10; 20; 30 ];
    Mbuf.contents buf
  in
  List.iter
    (fun (what, ops, shapes, build, expect) ->
      let plan = { Dplan.d_nslots = 3; d_ops = ops; d_shapes = shapes; d_subs = [] } in
      Alcotest.(check string) (what ^ ": build") build
        (Dplan.build_name (Dplan.plan_build plan));
      let d = Stub_opt.decoder_of_dplan ~enc:Encoding.xdr plan in
      let got = d (Mbuf.reader_of_bytes wire) in
      Alcotest.(check bool) (what ^ ": values") true
        (Array.length got = Array.length expect
        && Array.for_all2 Value.equal got expect);
      match d (Mbuf.reader_of_bytes ~len:10 wire) with
      | _ -> Alcotest.failf "%s: decoded a truncated message" what
      | exception Mbuf.Short_buffer -> ())
    [
      ( "roots in wire order",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_slot 0; Dplan.Sh_struct [ Dplan.Sh_slot 1; Dplan.Sh_slot 2 ] ],
        "in order",
        [| Value.Vint 10; Value.Vstruct [| Value.Vint 20; Value.Vint 30 |] |] );
      ( "one chunk read out of order",
        [ chunk [ 0; 1; 2 ] ],
        [ Dplan.Sh_slot 2; Dplan.Sh_struct [ Dplan.Sh_slot 0; Dplan.Sh_slot 1 ] ],
        "direct chunk",
        [| Value.Vint 30; Value.Vstruct [| Value.Vint 10; Value.Vint 20 |] |] );
      ( "interleaved roots",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_struct [ Dplan.Sh_slot 0; Dplan.Sh_slot 2 ]; Dplan.Sh_slot 1 ],
        "slot frame: shape reads slots out of wire order",
        [| Value.Vstruct [| Value.Vint 10; Value.Vint 30 |]; Value.Vint 20 |] );
      ( "a slot read twice",
        [ chunk [ 0 ]; chunk [ 1; 2 ] ],
        [ Dplan.Sh_slot 0; Dplan.Sh_slot 0; Dplan.Sh_slot 2 ],
        "slot frame: slots filled and read differ",
        [| Value.Vint 10; Value.Vint 10; Value.Vint 30 |] );
    ]

(* -- hostile counts ------------------------------------------------- *)

(* A count word that promises millions of directory entries, rects or
   list nodes in a body of one: every decoder checks the count against
   the bytes that remain, at its static minimum per element, before
   allocating, so the decode fails with a typed error having allocated
   almost nothing.  Stub_opt's rects are one rows kernel; Stub_naive and
   Stub_interp (which runs Stub_naive's decoder) loop over boxed
   elements.  A list node is a recursive named type, whose minimum is
   its body's: a long and an empty optional. *)
let hostile = 4_194_304

(* The one-element message [one] with its count, where it first
   differs from the two-element message [two], made [hostile]. *)
let hostile_wire enc one two =
  let at =
    let rec go i = if one.[i] <> two.[i] then i else go (i + 1) in
    go 0
  in
  match enc.Encoding.var with
  | None ->
      let w = at land lnot 3 in
      let b = Bytes.of_string one in
      if enc.Encoding.big_endian then Bytes.set_int32_be b w (Int32.of_int hostile)
      else Bytes.set_int32_le b w (Int32.of_int hostile);
      b
  | Some vc ->
      let head =
        (match vc with Encoding.Msgpack -> "\xdd" | Encoding.Cbor -> "\x9a")
        ^ "\x00\x40\x00\x00"
      in
      Bytes.of_string
        (String.sub one 0 at ^ head ^ String.sub one (at + 1) (String.length one - at - 1))

(* [run] must fail typed, allocating under 1 MB.  A minor collection
   inside the window makes [Gc.allocated_bytes] jump by the minor
   heap's size, so the window opens on an empty minor heap: only an
   allocation that itself fills it, or a major one, shows. *)
let fails_small what wire run =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let typed =
    match run () with
    | () -> false
    | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> true
  in
  let allocated = Gc.allocated_bytes () -. a0 in
  Alcotest.(check bool) (what ^ ": typed error") true typed;
  if allocated >= 1e6 then
    Alcotest.failf "%s: %d-byte body allocated %.0f bytes before failing" what
      (Bytes.length wire) allocated

let decoders_fail what enc ~mint ~named droots wire =
  List.iter
    (fun (engine, (d : Stub_opt.decoder)) ->
      fails_small
        (Printf.sprintf "%s %s %s" engine enc.Encoding.name what)
        wire
        (fun () -> ignore (d (Mbuf.reader_of_bytes wire))))
    [
      ("opt", Stub_opt.compile_decoder ~enc ~mint ~named droots);
      ("naive", Stub_naive.compile_decoder ~enc ~mint ~named droots);
      ("interp", Stub_interp.compile_decoder ~enc ~mint ~named droots);
    ]

let hostile_count_test () =
  let entry =
    Value.Vstruct
      [|
        Value.Vstring "abcdefgh";
        Value.Vstruct
          [| Value.Vint_array (Array.make 30 7); Value.Vbytes (Bytes.make 16 'x') |];
      |]
  and rect =
    Value.Vstruct
      [| Value.Vstruct [| Value.Vint 1; Value.Vint 2 |]; Value.Vstruct [| Value.Vint 3; Value.Vint 4 |] |]
  in
  (* the request for [op] carrying [elem] once, its count made hostile *)
  let hostile_request enc style op elem =
    let spec = Paper_fixtures.request_spec (Paper_fixtures.bench_presc style) ~op in
    let wire_of n =
      let e =
        Stub_opt.compile_encoder ~enc ~mint:spec.Paper_fixtures.ms_mint
          ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
      in
      let buf = Mbuf.create 256 in
      e buf [| Value.Varray (Array.make n elem) |];
      Bytes.to_string (Mbuf.contents buf)
    in
    (spec, hostile_wire enc (wire_of 1) (wire_of 2))
  in
  List.iter
    (fun ((enc, style), (op, elem)) ->
      let spec, wire = hostile_request enc style op elem in
      decoders_fail op enc ~mint:spec.Paper_fixtures.ms_mint
        ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_droots wire)
    (List.concat_map
       (fun e -> [ (e, ("send_dirents", entry)); (e, ("send_rects", rect)) ])
       [
         (Encoding.xdr, `Rpcgen);
         (Encoding.cdr, `Corba);
         (Encoding.mach3, `Fluke);
         (Encoding.msgpack, `Fluke);
         (Encoding.cbor, `Fluke);
       ]);
  (* the rects relayed to xdr, as the gateway pairs encodings with
     presentations: each relay bounds the count by the source bytes
     before it reserves the destination *)
  List.iter
    (fun (enc, style) ->
      let spec, wire = hostile_request enc style "send_rects" rect in
      let fwd =
        Stub_forward.compile_forward ~src:enc ~dst:Encoding.xdr
          ~mint:spec.Paper_fixtures.ms_mint ~named:spec.Paper_fixtures.ms_named
          (List.map Stub_opt.to_dplan_droot spec.Paper_fixtures.ms_droots)
          spec.Paper_fixtures.ms_roots
      in
      fails_small
        (Printf.sprintf "%s->xdr send_rects relay" enc.Encoding.name)
        wire
        (fun () -> fwd (Mbuf.reader_of_bytes wire) (Mbuf.create 64)))
    [
      (Encoding.xdr, `Rpcgen);
      (Encoding.cdr, `Corba);
      (Encoding.mach3, `Fluke);
      (Encoding.fluke, `Fluke);
    ];
  (* the dirents relays the gateway runs, whose element loops scan the
     source run: the count is bounded before the scan *)
  List.iter
    (fun (src, style, dst) ->
      let spec, wire = hostile_request src style "send_dirents" entry in
      let fwd =
        Stub_forward.compile_forward ~src ~dst ~mint:spec.Paper_fixtures.ms_mint
          ~named:spec.Paper_fixtures.ms_named
          (List.map Stub_opt.to_dplan_droot spec.Paper_fixtures.ms_droots)
          spec.Paper_fixtures.ms_roots
      in
      fails_small
        (Printf.sprintf "%s->%s send_dirents relay" src.Encoding.name dst.Encoding.name)
        wire
        (fun () -> fwd (Mbuf.reader_of_bytes wire) (Mbuf.create 64)))
    [
      (Encoding.xdr, `Rpcgen, Encoding.xdr);
      (Encoding.cdr, `Corba, Encoding.xdr);
      (Encoding.xdr, `Rpcgen, Encoding.cdr);
    ];
  (* sequence<node>, node = { long v; node *next; }: the three decoders
     in every encoding, and the relays to xdr from every fixed
     encoding, which materialize through Stub_opt's decoder *)
  let nodes =
    let l = Test_engines.linked_list_case () in
    let mint = l.Test_engines.mint in
    {
      l with
      Test_engines.label = "sequence<node>";
      idx = Mint.array mint ~elem:l.Test_engines.idx ~min_len:0 ~max_len:None;
      pres =
        Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = l.Test_engines.pres };
    }
  in
  let mint = nodes.Test_engines.mint and named = nodes.Test_engines.named in
  let droots = Test_engines.droots_of nodes and roots = Test_engines.roots_of nodes in
  List.iter
    (fun enc ->
      let wire_of n = encode enc nodes (Value.Varray (Array.make n (Test_engines.list_value 0))) in
      let wire = hostile_wire enc (wire_of 1) (wire_of 2) in
      decoders_fail nodes.Test_engines.label enc ~mint ~named droots wire;
      if enc.Encoding.var = None then
        let fwd =
          Stub_forward.compile_forward ~src:enc ~dst:Encoding.xdr ~mint ~named
            (List.map Stub_opt.to_dplan_droot droots) roots
        in
        fails_small
          (Printf.sprintf "%s->xdr %s relay" enc.Encoding.name nodes.Test_engines.label)
          wire
          (fun () -> fwd (Mbuf.reader_of_bytes wire) (Mbuf.create 64)))
    Encoding.all;
  (* the same count in front of a cdr -> xdr relay's element-by-element
     convert run: a 13-byte request must not make it allocate an array
     for millions of elements *)
  List.iter
    (fun (what, elem) ->
      let mint = Mint.create () in
      let idx = Mint.array mint ~elem:(elem mint) ~min_len:0 ~max_len:None in
      let pres =
        Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
      in
      let c = { Test_engines.label = what; mint; named = []; idx; pres } in
      let fwd =
        Stub_forward.compile_forward ~src:Encoding.cdr ~dst:Encoding.xdr ~mint ~named:[]
          (List.map Stub_opt.to_dplan_droot (Test_engines.droots_of c))
          (Test_engines.roots_of c)
      in
      let wire = Bytes.make 13 '\001' in
      Bytes.set_int32_be wire 0 (Int32.of_int hostile);
      fails_small ("cdr->xdr " ^ what) wire (fun () ->
          fwd (Mbuf.reader_of_bytes wire) (Mbuf.create 64)))
    [
      ("sequence<boolean>", Mint.bool_);
      ("sequence<double>", fun m -> Mint.float_ m ~bits:64);
      ("sequence<short>", fun m -> Mint.int_ m ~bits:16 ~signed:true);
    ]

let suite =
  [
    ("decplan:differential", property_tests);
    ("decplan:window-edges", window_edge_tests);
    ( "decplan:frame-builds",
      [
        Alcotest.test_case "every frame build decodes the same values" `Quick
          frame_build_test;
      ] );
    ( "decplan:hostile-count",
      [
        Alcotest.test_case "a hostile count fails typed, allocating < 1 MB"
          `Quick hostile_count_test;
      ] );
    ("decplan:failures", failure_tests);
    ( "decplan:rows",
      [
        Alcotest.test_case "rows are another spelling of the boxed array" `Quick value_rows_test;
        Alcotest.test_case "a malformed row raises what naive raises" `Quick malformed_row_test;
        Alcotest.test_case "rows after an unaligned field store as naive" `Quick unaligned_rows_test;
      ] );
    ("decplan:selfdesc-arrays", selfdesc_array_tests);
    ("decplan:views", view_tests);
    ("decplan:cache", cache_tests);
  ]
