type atom_kind =
  | Kbool
  | Kchar
  | Kint of { bits : int; signed : bool }
  | Kfloat of { bits : int }

type layout = { size : int; align : int }

(* A self-describing format (msgpack, CBOR) sizes a scalar by its
   *value*: the compiler can only reserve the worst case and let the
   emit advance by the actual width.  [Fixed] atoms keep the static
   story (chunks, blits) intact. *)
type size_class = Fixed of int | Var of { worst : int }

(* Which length-header family a count belongs to.  The three families
   differ on the wire (msgpack fixstr vs bin8 vs fixarray; CBOR major
   types 3/2/4), so every call site fixes its kind statically. *)
type lenkind = Lstr | Lbin | Larr

exception Var_error of string

(* The two self-describing formats.  Each has exactly one emitter and
   one parser below; reservation sizes and constant images derive from
   them. *)
type varcodec = Msgpack | Cbor

type t = {
  name : string;
  big_endian : bool;
  atom : atom_kind -> layout;
  len_prefix : layout;
  pad_unit : int;
  string_nul : bool;
  typed_headers : bool;
  max_align : int;
  granularity : int;
  var : varcodec option;
}

let natural = function
  | Kbool -> { size = 1; align = 1 }
  | Kchar -> { size = 1; align = 1 }
  | Kint { bits; signed = _ } ->
      let n = bits / 8 in
      { size = n; align = n }
  | Kfloat { bits } ->
      let n = bits / 8 in
      { size = n; align = n }

(* XDR: every scalar occupies a 4-byte multiple; nothing needs more than
   4-byte alignment. *)
let xdr_layout = function
  | Kbool | Kchar -> { size = 4; align = 4 }
  | Kint { bits = 64; _ } | Kfloat { bits = 64 } -> { size = 8; align = 4 }
  | Kint _ | Kfloat _ -> { size = 4; align = 4 }

let cdr =
  {
    name = "cdr";
    big_endian = true;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 1;
    string_nul = true;
    typed_headers = false;
    max_align = 8;
    granularity = 1;
    var = None;
  }

let xdr =
  {
    name = "xdr";
    big_endian = true;
    atom = xdr_layout;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 4;
    string_nul = false;
    typed_headers = false;
    max_align = 4;
    granularity = 4;
    var = None;
  }

let mach3 =
  {
    name = "mach3";
    big_endian = false;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 4;
    string_nul = false;
    typed_headers = true;
    max_align = 8;
    granularity = 1;
    var = None;
  }

let fluke =
  {
    name = "fluke";
    big_endian = false;
    atom = natural;
    len_prefix = { size = 4; align = 4 };
    pad_unit = 1;
    string_nul = false;
    typed_headers = false;
    max_align = 8;
    granularity = 1;
    var = None;
  }

(* ------------------------------------------------------------------ *)
(* Variable-header codecs                                               *)
(* ------------------------------------------------------------------ *)

let verr fmt = Printf.ksprintf (fun m -> raise (Var_error m)) fmt

(* canonicalize a constant to the wire semantics of its declared width:
   keep the low [bits], then sign- or zero-extend (what a fixed-size
   encoding's store-then-load round trip does) *)
let canon_int ~bits ~signed v =
  if bits >= 64 then v
  else
    let shift = 64 - bits in
    let low = Int64.shift_right_logical (Int64.shift_left v shift) shift in
    if signed then Int64.shift_right (Int64.shift_left v shift) shift else low

let u_le a b = Int64.unsigned_compare a b <= 0
let u_ge a b = Int64.unsigned_compare a b >= 0

let var_size = function
  | Kbool -> Var { worst = 1 }
  | Kchar -> Var { worst = 2 }
  | Kint { bits = 8; _ } -> Var { worst = 2 }
  | Kint { bits = 16; _ } -> Var { worst = 3 }
  | Kint { bits = 32; _ } -> Var { worst = 5 }
  | Kint _ -> Var { worst = 9 }
  | Kfloat { bits } -> Fixed (1 + (bits / 8))

let var_float_tag vc ~bits =
  match vc with
  | Msgpack -> if bits = 32 then 0xca else 0xcb
  | Cbor -> if bits = 32 then 0xfa else 0xfb

(* Emit a tag byte and its big-endian payload straight into the buffer.
   [check:false] rides a covering reservation of the atom's worst case;
   [check:true] reserves exactly the bytes emitted. *)

let emit ~check b width tag v =
  if check then Mbuf.ensure b (1 + width);
  Mbuf.set_u8 b 0 tag;
  (match width with
  | 0 -> ()
  | 1 -> Mbuf.set_u8 b 1 v
  | 2 -> Mbuf.set_i16_be b 1 (v land 0xffff)
  | _ -> Mbuf.set_i32_be b 1 v);
  Mbuf.advance b (1 + width)

let emit8 ~check b tag v =
  if check then Mbuf.ensure b 9;
  Mbuf.set_u8 b 0 tag;
  Mbuf.set_i64_be b 1 v;
  Mbuf.advance b 9

(* Read the [width]-byte (1, 2 or 4) big-endian payload after a one-byte
   tag, in place and zero-extended; checks tag+payload are in bounds. *)
let payload r width =
  Mbuf.need r (1 + width);
  match width with
  | 1 -> Mbuf.get_u8 r 1
  | 2 -> Mbuf.get_i16_be r 1
  | _ -> Mbuf.get_i32_be r 1 land 0xffff_ffff

let sext width v =
  let s = Sys.int_size - (8 * width) in
  (v lsl s) asr s

let signed_of = function
  | Kint { signed; _ } -> signed
  | Kbool | Kchar | Kfloat _ -> false

(* Every canonical 8-byte form lies outside a char or a field of at
   most 32 bits, so reading one into such a field always fails. *)
let wide_field kind n =
  match kind with
  | Kchar -> verr "invalid character %Ld" n
  | Kint { bits; _ } -> verr "integer %Ld out of range for %d-bit field" n bits
  | Kbool | Kfloat _ -> invalid_arg "Encoding: not an integer field"

let check_field kind v =
  (match kind with
  | Kchar -> if v > 255 then verr "invalid character %d" v
  | Kint { bits; signed } ->
      let c = if signed then sext (bits / 8) v else v land ((1 lsl bits) - 1) in
      if c <> v then verr "integer %d out of range for %d-bit field" v bits
  | Kbool | Kfloat _ -> invalid_arg "Encoding: not an integer field");
  v

(* the parsers' stand-in fields for the native part of a 64-bit read,
   which never reaches [wide_field] *)
let k_i64 = Kint { bits = 64; signed = true }
let k_u64 = Kint { bits = 64; signed = false }

(* ---------------------------- msgpack ----------------------------- *)

(* [v] >= -2^31: fixints, then the tagged forms *)
let mp_put_int ~check b v =
  if v >= 0 then
    if v <= 0x7f then emit ~check b 0 v 0
    else if v <= 0xff then emit ~check b 1 0xcc v
    else if v <= 0xffff then emit ~check b 2 0xcd v
    else if v <= 0xffff_ffff then emit ~check b 4 0xce v
    else emit8 ~check b 0xcf (Int64.of_int v)
  else if v >= -32 then emit ~check b 0 (v land 0xff) 0
  else if v >= -128 then emit ~check b 1 0xd0 v
  else if v >= -32768 then emit ~check b 2 0xd1 v
  else emit ~check b 4 0xd2 v

let mp_put_int64 ~check ~signed b v =
  if signed && Int64.compare v 0L < 0 then
    if Int64.compare v (-0x8000_0000L) >= 0 then
      mp_put_int ~check b (Int64.to_int v)
    else emit8 ~check b 0xd3 v
  else if u_le v 0xffff_ffffL then mp_put_int ~check b (Int64.to_int v)
  else emit8 ~check b 0xcf v

let mp_put_len ~check b kind n =
  match kind with
  | Lstr ->
      if n <= 31 then emit ~check b 0 (0xa0 lor n) 0
      else if n <= 0xff then emit ~check b 1 0xd9 n
      else if n <= 0xffff then emit ~check b 2 0xda n
      else emit ~check b 4 0xdb n
  | Lbin ->
      if n <= 0xff then emit ~check b 1 0xc4 n
      else if n <= 0xffff then emit ~check b 2 0xc5 n
      else emit ~check b 4 0xc6 n
  | Larr ->
      if n <= 15 then emit ~check b 0 (0x90 lor n) 0
      else if n <= 0xffff then emit ~check b 2 0xdc n
      else emit ~check b 4 0xdd n

(* the 8-byte forms (tags 0xcf, 0xd3) *)
let mp_get_wide ~signed r t =
  if t = 0xd3 && not signed then
    verr "msgpack: negative integer for unsigned field";
  Mbuf.need r 9;
  let v = Mbuf.get_i64_be r 1 in
  if t = 0xcf then begin
    if not (u_ge v 0x1_0000_0000L) then verr "msgpack: non-minimal uint64";
    if signed && Int64.compare v 0L < 0 then verr "msgpack: integer out of range"
  end
  else if Int64.compare v (-2147483649L) > 0 then
    verr "msgpack: non-minimal int64";
  Mbuf.skip r 9;
  v

let mp_uint r width floor what =
  let v = payload r width in
  if v < floor then verr "msgpack: non-minimal %s" what;
  Mbuf.skip r (1 + width);
  v

let mp_negint ~signed r width ceil what =
  if not signed then verr "msgpack: negative integer for unsigned field";
  let v = sext width (payload r width) in
  if v > ceil then verr "msgpack: non-minimal %s" what;
  Mbuf.skip r (1 + width);
  v

(* one integer read into [kind]: tag and payload in place, the value a
   native int *)
let mp_get_int kind r =
  let signed = signed_of kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t <= 0x7f then (
    Mbuf.skip r 1;
    t)
  else if t >= 0xe0 then (
    if not signed then verr "msgpack: negative integer for unsigned field";
    Mbuf.skip r 1;
    t - 256)
  else
    match t with
    | 0xcc -> mp_uint r 1 0x80 "uint8"
    | 0xcd -> mp_uint r 2 0x100 "uint16"
    | 0xce -> mp_uint r 4 0x10000 "uint32"
    | 0xd0 -> mp_negint ~signed r 1 (-33) "int8"
    | 0xd1 -> mp_negint ~signed r 2 (-129) "int16"
    | 0xd2 -> mp_negint ~signed r 4 (-32769) "int32"
    | 0xcf | 0xd3 -> wide_field kind (mp_get_wide ~signed r t)
    | _ -> verr "msgpack: expected integer, got tag 0x%02x" t

let mp_get_int64 ~signed r =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t = 0xcf || t = 0xd3 then mp_get_wide ~signed r t
  else Int64.of_int (mp_get_int (if signed then k_i64 else k_u64) r)

let mp_len r width floor what =
  let n = payload r width in
  if n < floor then verr "msgpack: non-minimal %s length" what;
  if n > 0x7fff_ffff then verr "msgpack: length %d out of range" n;
  Mbuf.skip r (1 + width);
  n

let mp_get_len r kind =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  match kind with
  | Lstr -> (
      if t land 0xe0 = 0xa0 then (
        Mbuf.skip r 1;
        t land 0x1f)
      else
        match t with
        | 0xd9 -> mp_len r 1 32 "str8"
        | 0xda -> mp_len r 2 0x100 "str16"
        | 0xdb -> mp_len r 4 0x10000 "str32"
        | _ -> verr "msgpack: expected string, got tag 0x%02x" t)
  | Lbin -> (
      match t with
      | 0xc4 -> mp_len r 1 0 "bin8"
      | 0xc5 -> mp_len r 2 0x100 "bin16"
      | 0xc6 -> mp_len r 4 0x10000 "bin32"
      | _ -> verr "msgpack: expected binary, got tag 0x%02x" t)
  | Larr -> (
      if t land 0xf0 = 0x90 then (
        Mbuf.skip r 1;
        t land 0x0f)
      else
        match t with
        | 0xdc -> mp_len r 2 16 "array16"
        | 0xdd -> mp_len r 4 0x10000 "array32"
        | _ -> verr "msgpack: expected array, got tag 0x%02x" t)

(* ----------------------------- CBOR ------------------------------- *)

(* RFC 8949 preferred (minimal-width) heads: 3-bit major type, 5-bit
   additional info, then a 1/2/4/8-byte big-endian argument [n] >= 0. *)
let cbor_put_head ~check b major n =
  let mt = major lsl 5 in
  if n <= 23 then emit ~check b 0 (mt lor n) 0
  else if n <= 0xff then emit ~check b 1 (mt lor 24) n
  else if n <= 0xffff then emit ~check b 2 (mt lor 25) n
  else if n <= 0xffff_ffff then emit ~check b 4 (mt lor 26) n
  else emit8 ~check b (mt lor 27) (Int64.of_int n)

let cbor_put_int ~check b v =
  if v >= 0 then cbor_put_head ~check b 0 v
  else cbor_put_head ~check b 1 (lnot v)

let cbor_put_int64 ~check ~signed b v =
  if signed && Int64.compare v 0L < 0 then
    let n = Int64.lognot v in
    if u_le n 0xffff_ffffL then cbor_put_head ~check b 1 (Int64.to_int n)
    else emit8 ~check b 0x3b n
  else if u_le v 0xffff_ffffL then cbor_put_head ~check b 0 (Int64.to_int v)
  else emit8 ~check b 0x1b v

let len_major = function Lbin -> 2 | Lstr -> 3 | Larr -> 4

(* A head's argument of at most 4 bytes, read in place (the tag byte is
   in bounds; additional info 27 is the caller's).  Rejects non-minimal
   arguments and indefinite lengths. *)
let cbor_arg r t =
  let info = t land 0x1f in
  if info <= 23 then (
    Mbuf.skip r 1;
    info)
  else
    let width, floor =
      match info with
      | 24 -> (1, 24)
      | 25 -> (2, 0x100)
      | 26 -> (4, 0x10000)
      | _ -> verr "cbor: malformed head 0x%02x" t
    in
    let n = payload r width in
    if n < floor then verr "cbor: non-minimal argument in head 0x%02x" t;
    Mbuf.skip r (1 + width);
    n

(* the 8-byte argument of additional info 27 *)
let cbor_wide_arg r t =
  Mbuf.need r 9;
  let n = Mbuf.get_i64_be r 1 in
  if not (u_ge n 0x1_0000_0000L) then
    verr "cbor: non-minimal argument in head 0x%02x" t;
  Mbuf.skip r 9;
  n

let cbor_wide_int ~signed r t =
  let n = cbor_wide_arg r t in
  match t lsr 5 with
  | 0 ->
      if signed && Int64.compare n 0L < 0 then verr "cbor: integer out of range";
      n
  | 1 ->
      if not signed then verr "cbor: negative integer for unsigned field";
      if Int64.compare n 0L < 0 then verr "cbor: integer out of range";
      Int64.lognot n
  | major -> verr "cbor: expected integer, got major type %d" major

(* one integer read into [kind], the value a native int *)
let cbor_get_int kind r =
  let signed = signed_of kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then wide_field kind (cbor_wide_int ~signed r t)
  else
    let n = cbor_arg r t in
    match t lsr 5 with
    | 0 -> n
    | 1 ->
        if not signed then verr "cbor: negative integer for unsigned field";
        lnot n
    | major -> verr "cbor: expected integer, got major type %d" major

let cbor_get_int64 ~signed r =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then cbor_wide_int ~signed r t
  else Int64.of_int (cbor_get_int (if signed then k_i64 else k_u64) r)

let cbor_get_len r kind =
  let want = len_major kind in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  if t land 0x1f = 27 then (
    let n = cbor_wide_arg r t in
    if t lsr 5 <> want then
      verr "cbor: expected major type %d, got %d" want (t lsr 5);
    verr "cbor: length %Lu out of range" n)
  else
    let n = cbor_arg r t in
    if t lsr 5 <> want then
      verr "cbor: expected major type %d, got %d" want (t lsr 5);
    if n > 0x7fff_ffff then verr "cbor: length %d out of range" n;
    n

(* ------------------------- shared plumbing ------------------------ *)

let var_put_int vc ~check b v =
  match vc with
  | Msgpack -> mp_put_int ~check b v
  | Cbor -> cbor_put_int ~check b v

let var_put_int64 vc ~check ~signed b v =
  match vc with
  | Msgpack -> mp_put_int64 ~check ~signed b v
  | Cbor -> cbor_put_int64 ~check ~signed b v

let bool_tag vc x =
  match vc with
  | Msgpack -> if x then 0xc3 else 0xc2
  | Cbor -> if x then 0xf5 else 0xf4

let var_put_bool vc ~check b x = emit ~check b 0 (bool_tag vc x) 0

let var_put_float vc ~check ~bits b f =
  let n = bits / 8 in
  if check then Mbuf.ensure b (1 + n);
  Mbuf.set_u8 b 0 (var_float_tag vc ~bits);
  if bits = 32 then Mbuf.set_f32_be b 1 f else Mbuf.set_f64_be b 1 f;
  Mbuf.advance b (1 + n)

let var_put_len vc ~check b kind n =
  match vc with
  | Msgpack -> mp_put_len ~check b kind n
  | Cbor -> cbor_put_head ~check b (len_major kind) n

let var_get_int vc kind r =
  check_field kind
    (match vc with Msgpack -> mp_get_int kind r | Cbor -> cbor_get_int kind r)

let var_get_int64 vc ~signed r =
  match vc with
  | Msgpack -> mp_get_int64 ~signed r
  | Cbor -> cbor_get_int64 ~signed r

let var_get_bool vc r =
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  let x = t = bool_tag vc true in
  if (not x) && t <> bool_tag vc false then
    verr "%s: expected bool, got tag 0x%02x"
      (match vc with Msgpack -> "msgpack" | Cbor -> "cbor")
      t;
  Mbuf.skip r 1;
  x

let var_get_float vc ~bits r =
  let n = bits / 8 in
  Mbuf.need r 1;
  let t = Mbuf.get_u8 r 0 in
  let tag = var_float_tag vc ~bits in
  if t <> tag then
    verr "expected %d-bit float tag 0x%02x, got 0x%02x" bits tag t;
  Mbuf.need r (1 + n);
  let f = if bits = 32 then Mbuf.get_f32_be r 1 else Mbuf.get_f64_be r 1 in
  Mbuf.skip r (1 + n);
  f

let var_get_len vc kind r =
  match vc with Msgpack -> mp_get_len r kind | Cbor -> cbor_get_len r kind

(* A constant's image is whatever the emitter writes for it on a scratch
   writer, so the narrowed chunk and the runtime path cannot disagree. *)
let image emit =
  let b = Mbuf.create 9 in
  emit b;
  let bytes, n = Mbuf.view b in
  Bytes.sub_string bytes 0 n

let var_const_image vc kind v =
  match kind with
  | Kbool -> image (fun b -> var_put_bool vc ~check:true b (v <> 0L))
  | Kchar ->
      image (fun b ->
          var_put_int vc ~check:true b (Int64.to_int (Int64.logand v 0xffL)))
  | Kint { bits; signed } ->
      image (fun b ->
          var_put_int64 vc ~check:true ~signed b (canon_int ~bits ~signed v))
  | Kfloat _ -> invalid_arg "Encoding: float constants have no var image"

let var_len_image vc kind n =
  image (fun b -> var_put_len vc ~check:true b kind n)

(* Both self-describing encodings are byte-granular: every alignment
   field is 1, so the plan compilers' congruence machinery is inert
   (no pads, no Align ops).  [len_prefix.size] is the worst-case length
   head, used only for conservative reservations. *)
let selfdesc name var =
  {
    name;
    big_endian = true;
    atom = (fun k -> { size = (natural k).size; align = 1 });
    len_prefix = { size = 5; align = 1 };
    pad_unit = 1;
    string_nul = false;
    typed_headers = false;
    max_align = 1;
    granularity = 1;
    var = Some var;
  }

let msgpack = selfdesc "msgpack" Msgpack
let cbor = selfdesc "cbor" Cbor

let all = [ cdr; xdr; mach3; fluke; msgpack; cbor ]
let by_name n = List.find_opt (fun e -> e.name = n) all

let atom_of_mint (def : Mint.def) =
  match def with
  | Mint.Bool -> Some Kbool
  | Mint.Char8 -> Some Kchar
  | Mint.Int { bits; signed } -> Some (Kint { bits; signed })
  | Mint.Float { bits } -> Some (Kfloat { bits })
  | Mint.Void | Mint.Array _ | Mint.Struct _ | Mint.Union _ -> None
