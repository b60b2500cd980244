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

(* A head is a tag byte and a big-endian payload of 0, 1, 2 or 4 bytes.
   A length's or a bool's head is chosen by the format rules below as
   [hd width tag]; [put_head] stores head [h] with payload [v] at
   [b.[i]] and returns the head's width.  An integer's head has one
   writer per format ([mp_put_int], [cbor_put_int]), for one value and
   for a run alike. *)
let[@inline] hd width tag = (width lsl 8) lor tag

let[@inline] put_head b i h v =
  Bytes.set_uint8 b i (h land 0xff);
  (match h lsr 8 with
  | 0 -> ()
  | 1 -> Bytes.set_uint8 b (i + 1) (v land 0xff)
  | 2 -> Bytes.set_uint16_be b (i + 1) (v land 0xffff)
  | _ -> Bytes.set_int32_be b (i + 1) (Int32.of_int v));
  1 + (h lsr 8)

(* One head at the cursor, through the writer's window; the kernel
   takes the head in the low 12 bits and the payload above them.
   [check:false] rides a covering reservation of the atom's worst case;
   [check:true] reserves exactly the bytes emitted. *)
let head_in x b i _ = put_head b i (x land 0xfff) (x lsr 12)

let emit ~check b h v =
  if check then Mbuf.ensure b (1 + (h lsr 8));
  Mbuf.advance b (Mbuf.wwindow b head_in (((v land 0xffff_ffff) lsl 12) lor h))

let emit8 ~check b tag v =
  if check then Mbuf.ensure b 9;
  Mbuf.set_u8 b 0 tag;
  Mbuf.set_i64_be b 1 v;
  Mbuf.advance b 9

(* Unchecked big-endian loads and stores, for a caller that has checked
   (or reserved) the bytes lie in [b]. *)
external get16u : bytes -> int -> int = "%caml_bytes_get16u"
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set16u : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] u8_at b i = Char.code (Bytes.unsafe_get b i)
let[@inline] u16_at b i = if Sys.big_endian then get16u b i else bswap16 (get16u b i)

(* sign-extended; [land 0xffff_ffff] zero-extends *)
let[@inline] i32_at b i =
  let v = get32u b i in
  Int32.to_int (if Sys.big_endian then v else bswap32 v)

let[@inline] set8 b i v = Bytes.unsafe_set b i (Char.unsafe_chr (v land 0xff))
let[@inline] set16 b i v = set16u b i (if Sys.big_endian then v else bswap16 v)

let[@inline] set32 b i v =
  let w = Int32.of_int v in
  set32u b i (if Sys.big_endian then w else bswap32 w)

(* the [width]-byte (1, 2 or 4) big-endian payload after the tag at
   [b.[i]], zero-extended *)
let[@inline] payload_at b i width =
  match width with
  | 1 -> u8_at b (i + 1)
  | 2 -> u16_at b (i + 1)
  | _ -> i32_at b (i + 1) land 0xffff_ffff

let payload_in width b i _ = payload_at b i width

(* The same payload read through a reader, in place; checks
   tag+payload are in bounds. *)
let payload r width =
  Mbuf.need r (1 + width);
  Mbuf.window r payload_in width

let[@inline] sext width v =
  let s = Sys.int_size - (8 * width) in
  (v lsl s) asr s

let[@inline] signed_of = function
  | Kint { signed; _ } -> signed
  | Kbool | Kchar | Kfloat _ -> false

(* Every canonical 8-byte form lies outside a char or a field of at
   most 32 bits, so reading one into such a field always fails. *)
let wide_field kind n =
  match kind with
  | Kchar -> verr "invalid character %Ld" n
  | Kint { bits; _ } -> verr "integer %Ld out of range for %d-bit field" n bits
  | Kbool | Kfloat _ -> invalid_arg "Encoding: not an integer field"

(* The least and greatest values of a char field or an int field:
   every value for the 64-bit stand-ins below. *)
let lo_of = function
  | Kint { bits; _ } when bits >= 64 -> min_int
  | Kint { bits; signed = true } -> -(1 lsl (bits - 1))
  | Kbool | Kchar | Kint _ | Kfloat _ -> 0

let hi_of = function
  | Kchar -> 255
  | Kint { bits; _ } when bits >= 64 -> max_int
  | Kint { bits; signed } -> (1 lsl (if signed then bits - 1 else bits)) - 1
  | Kbool | Kfloat _ -> invalid_arg "Encoding: not an integer field"

let out_of_range kind v =
  match kind with
  | Kchar -> verr "invalid character %d" v
  | Kint { bits; _ } -> verr "integer %d out of range for %d-bit field" v bits
  | Kbool | Kfloat _ -> invalid_arg "Encoding: not an integer field"

(* [v] read into [kind], whose range is [lo, hi] *)
let[@inline] fit ~lo ~hi kind v =
  if v < lo || v > hi then out_of_range kind v;
  v

(* the parsers' stand-in fields for the native part of a 64-bit read,
   which never reaches [wide_field] and which every value fits *)
let k_i64 = Kint { bits = 64; signed = true }
let k_u64 = Kint { bits = 64; signed = false }

(* A step parses the integer head at [b.[i]] into a field: one dispatch
   on the tag picks its form, whose branch checks the payload lies
   before [stop], reads it, checks it is minimal and fits the field, and
   returns (value lsl 3) lor width; 0 when the head is not whole before
   [stop], [wide] (4, no head's width) at an 8-byte form. *)
let wide = 4
let[@inline] got v width = (v lsl 3) lor width

(* ---------------------------- msgpack ----------------------------- *)

(* The one writer of integer heads: stores the head of [v] in
   [-2^31, 2^32) at [b.[i]] (a fixint, else the narrowest tagged form,
   whose payload is [v] itself) and returns its width.  Each branch
   writes its form's tag and payload and returns the form's constant,
   so a run's next position never waits on a store. *)
let[@inline] mp_put_int b i v =
  if v >= 0 then
    if v <= 0x7f then (set8 b i v; 1)
    else if v <= 0xff then (set8 b i 0xcc; set8 b (i + 1) v; 2)
    else if v <= 0xffff then (set8 b i 0xcd; set16 b (i + 1) v; 3)
    else (set8 b i 0xce; set32 b (i + 1) v; 5)
  else if v >= -32 then (set8 b i v; 1)
  else if v >= -128 then (set8 b i 0xd0; set8 b (i + 1) v; 2)
  else if v >= -32768 then (set8 b i 0xd1; set16 b (i + 1) v; 3)
  else (set8 b i 0xd2; set32 b (i + 1) v; 5)

let mp_len_head kind n =
  match kind with
  | Lstr ->
      if n <= 31 then hd 0 (0xa0 lor n)
      else if n <= 0xff then hd 1 0xd9
      else if n <= 0xffff then hd 2 0xda
      else hd 4 0xdb
  | Lbin ->
      if n <= 0xff then hd 1 0xc4 else if n <= 0xffff then hd 2 0xc5 else hd 4 0xc6
  | Larr ->
      if n <= 15 then hd 0 (0x90 lor n) else if n <= 0xffff then hd 2 0xdc else hd 4 0xdd

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

let mp_nonminimal what = verr "msgpack: non-minimal %s" what

(* A negative form in an unsigned field fails at its tag. *)
let[@inline] mp_sign ~signed =
  if not signed then verr "msgpack: negative integer for unsigned field"

(* a tagged form with a [width]-byte payload, checked minimal once it
   lies whole before [stop] *)
let[@inline] mp_uint ~lo ~hi kind b i stop width floor what =
  if i + 1 + width > stop then 0
  else
    let v = payload_at b i width in
    if v < floor then mp_nonminimal what;
    got (fit ~lo ~hi kind v) (1 + width)

let[@inline] mp_negint ~signed ~lo ~hi kind b i stop width ceil what =
  mp_sign ~signed;
  if i + 1 + width > stop then 0
  else
    let v = sext width (payload_at b i width) in
    if v > ceil then mp_nonminimal what;
    got (fit ~lo ~hi kind v) (1 + width)

let[@inline] mp_step ~signed ~lo ~hi kind b i stop =
  match Bytes.unsafe_get b i with
  | '\x00' .. '\x7f' as t -> got (fit ~lo ~hi kind (Char.code t)) 1
  | '\xe0' .. '\xff' as t ->
      mp_sign ~signed;
      got (fit ~lo ~hi kind (Char.code t - 256)) 1
  | '\xcc' -> mp_uint ~lo ~hi kind b i stop 1 0x80 "uint8"
  | '\xcd' -> mp_uint ~lo ~hi kind b i stop 2 0x100 "uint16"
  | '\xce' -> mp_uint ~lo ~hi kind b i stop 4 0x10000 "uint32"
  | '\xd0' -> mp_negint ~signed ~lo ~hi kind b i stop 1 (-33) "int8"
  | '\xd1' -> mp_negint ~signed ~lo ~hi kind b i stop 2 (-129) "int16"
  | '\xd2' -> mp_negint ~signed ~lo ~hi kind b i stop 4 (-32769) "int32"
  | '\xcf' -> wide
  | '\xd3' ->
      mp_sign ~signed;
      wide
  | t -> verr "msgpack: expected integer, got tag 0x%02x" (Char.code t)

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
   additional info, then a 1/2/4-byte big-endian argument [n] in
   [0, 2^32); the 8-byte arguments of 64-bit fields go through [emit8]. *)
let[@inline] cbor_head_of major n =
  let mt = major lsl 5 in
  if n <= 23 then hd 0 (mt lor n)
  else if n <= 0xff then hd 1 (mt lor 24)
  else if n <= 0xffff then hd 2 (mt lor 25)
  else hd 4 (mt lor 26)

(* The one writer of integer heads, as [mp_put_int]: a negative [v] is
   major type 1 with argument [-1 - v]. *)
let[@inline] cbor_put_int b i v =
  let neg = v asr (Sys.int_size - 1) in
  let mt = neg land 0x20 and n = v lxor neg in
  if n <= 23 then (set8 b i (mt lor n); 1)
  else if n <= 0xff then (set8 b i (mt lor 24); set8 b (i + 1) n; 2)
  else if n <= 0xffff then (set8 b i (mt lor 25); set16 b (i + 1) n; 3)
  else (set8 b i (mt lor 26); set32 b (i + 1) n; 5)

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

(* the [width]-byte argument after the tag [t] at [b.[i]], checked
   minimal *)
let[@inline] cbor_uarg b i width t =
  let n = payload_at b i width in
  if n < (match width with 1 -> 24 | 2 -> 0x100 | _ -> 0x10000) then
    verr "cbor: non-minimal argument in head 0x%02x" t;
  n

(* The sign of a negative form is checked after its argument. *)
let[@inline] cbor_neg ~signed n =
  if not signed then verr "cbor: negative integer for unsigned field";
  lnot n

(* A head of another major type, or a malformed one: it fails once the
   same rules as an integer's have read its argument. *)
let cbor_other b i stop t =
  match t land 0x1f with
  | 27 -> wide
  | info when info > 27 -> verr "cbor: malformed head 0x%02x" t
  | info ->
      let width = match info with 24 -> 1 | 25 -> 2 | 26 -> 4 | _ -> 0 in
      if i + 1 + width > stop then 0
      else begin
        if width > 0 then ignore (cbor_uarg b i width t);
        verr "cbor: expected integer, got major type %d" (t lsr 5)
      end

let[@inline] cbor_step ~signed ~lo ~hi kind b i stop =
  match Bytes.unsafe_get b i with
  | '\x00' .. '\x17' as t -> got (fit ~lo ~hi kind (Char.code t)) 1
  | '\x18' -> if i + 2 > stop then 0 else got (fit ~lo ~hi kind (cbor_uarg b i 1 0x18)) 2
  | '\x19' -> if i + 3 > stop then 0 else got (fit ~lo ~hi kind (cbor_uarg b i 2 0x19)) 3
  | '\x1a' -> if i + 5 > stop then 0 else got (fit ~lo ~hi kind (cbor_uarg b i 4 0x1a)) 5
  | '\x20' .. '\x37' as t -> got (fit ~lo ~hi kind (cbor_neg ~signed (Char.code t - 0x20))) 1
  | '\x38' ->
      if i + 2 > stop then 0 else got (fit ~lo ~hi kind (cbor_neg ~signed (cbor_uarg b i 1 0x38))) 2
  | '\x39' ->
      if i + 3 > stop then 0 else got (fit ~lo ~hi kind (cbor_neg ~signed (cbor_uarg b i 2 0x39))) 3
  | '\x3a' ->
      if i + 5 > stop then 0 else got (fit ~lo ~hi kind (cbor_neg ~signed (cbor_uarg b i 4 0x3a))) 5
  | t -> cbor_other b i stop (Char.code t)

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

let[@inline] put_int vc b i v =
  match vc with Msgpack -> mp_put_int b i v | Cbor -> cbor_put_int b i v

let mp_int_in v b i _ = mp_put_int b i v
let cbor_int_in v b i _ = cbor_put_int b i v

(* [check:true] reserves the worst integer head, 5 bytes *)
let var_put_int vc ~check b v =
  if check then Mbuf.ensure b 5;
  match vc with
  | Msgpack -> Mbuf.advance b (Mbuf.wwindow b mp_int_in v)
  | Cbor -> Mbuf.advance b (Mbuf.wwindow b cbor_int_in v)

(* a 64-bit field's value: an integer head while it has one, else the
   8-byte form *)
let var_put_int64 vc ~check ~signed b v =
  let neg = signed && Int64.compare v 0L < 0 in
  let fits =
    match vc with
    | Msgpack ->
        if neg then Int64.compare v (-0x8000_0000L) >= 0
        else u_le v 0xffff_ffffL
    | Cbor -> u_le (if neg then Int64.lognot v else v) 0xffff_ffffL
  in
  if fits then var_put_int vc ~check b (Int64.to_int v)
  else
    match (vc, neg) with
    | Msgpack, _ -> emit8 ~check b (if neg then 0xd3 else 0xcf) v
    | Cbor, true -> emit8 ~check b 0x3b (Int64.lognot v)
    | Cbor, false -> emit8 ~check b 0x1b v

(* A run of values of a field of at most 32 bits, each reduced to the
   field width as a fixed-size store reduces it, head after head inside
   one writer window. *)
let[@inline] put_one vc shift signed b i v =
  let v = v lsl shift in
  put_int vc b i (if signed then v asr shift else v lsr shift)

let[@inline] put_ints vc shift signed a b i =
  let j = ref i in
  for k = 0 to Array.length a - 1 do
    j := !j + put_one vc shift signed b !j (Array.unsafe_get a k)
  done;
  !j - i

let var_put_ints vc ~bits ~signed =
  let shift = Sys.int_size - bits in
  let run : int array -> bytes -> int -> int -> int =
    match (vc, signed) with
    | Msgpack, true -> fun a b i _ -> put_ints Msgpack shift true a b i
    | Msgpack, false -> fun a b i _ -> put_ints Msgpack shift false a b i
    | Cbor, true -> fun a b i _ -> put_ints Cbor shift true a b i
    | Cbor, false -> fun a b i _ -> put_ints Cbor shift false a b i
  in
  fun w a -> Mbuf.advance w (Mbuf.wwindow w run a)

let var_put_int_at vc ~bits ~signed =
  let shift = Sys.int_size - bits in
  match (vc, signed) with
  | Msgpack, true -> fun b i v -> put_one Msgpack shift true b i v
  | Msgpack, false -> fun b i v -> put_one Msgpack shift false b i v
  | Cbor, true -> fun b i v -> put_one Cbor shift true b i v
  | Cbor, false -> fun b i v -> put_one Cbor shift false b i v

let bool_tag vc x =
  match vc with
  | Msgpack -> if x then 0xc3 else 0xc2
  | Cbor -> if x then 0xf5 else 0xf4

let var_put_bool vc ~check b x = emit ~check b (hd 0 (bool_tag vc x)) 0

let var_put_float vc ~check ~bits b f =
  let n = bits / 8 in
  if check then Mbuf.ensure b (1 + n);
  Mbuf.set_u8 b 0 (var_float_tag vc ~bits);
  if bits = 32 then Mbuf.set_f32_be b 1 f else Mbuf.set_f64_be b 1 f;
  Mbuf.advance b (1 + n)

let var_put_len vc ~check b kind n =
  match vc with
  | Msgpack -> emit ~check b (mp_len_head kind n) n
  | Cbor -> emit ~check b (cbor_head_of (len_major kind) n) n

let wide_int vc ~signed r t =
  match vc with
  | Msgpack -> mp_get_wide ~signed r t
  | Cbor -> cbor_wide_int ~signed r t

let[@inline] step vc ~signed ~lo ~hi kind b i stop =
  if i >= stop then 0
  else
    match vc with
    | Msgpack -> mp_step ~signed ~lo ~hi kind b i stop
    | Cbor -> cbor_step ~signed ~lo ~hi kind b i stop

(* One head read into [kind], as [Mbuf.window] kernels, one per format,
   closed so that no read allocates. *)
let mp_head kind b i stop = step Msgpack ~signed:(signed_of kind) ~lo:(lo_of kind) ~hi:(hi_of kind) kind b i stop
let cbor_head kind b i stop = step Cbor ~signed:(signed_of kind) ~lo:(lo_of kind) ~hi:(hi_of kind) kind b i stop
let[@inline] head vc = match vc with Msgpack -> mp_head | Cbor -> cbor_head

(* The step through a reader: in place when the head lies whole in the
   window, else once the at most 5 bytes it can take are pulled up into
   one; a head the message cuts short is [Mbuf.Short_buffer]. *)
let head_at vc kind r =
  let g = Mbuf.window r (head vc) kind in
  if g <> 0 then g
  else begin
    Mbuf.need r (max 1 (min 5 (Mbuf.remaining r)));
    let g = Mbuf.window r (head vc) kind in
    if g = 0 then raise Mbuf.Short_buffer;
    g
  end

let skip_head r g =
  Mbuf.skip r (g land 7);
  g asr 3

let var_get_int vc kind r =
  let g = head_at vc kind r in
  if g <> wide then skip_head r g
  else wide_field kind (wide_int vc ~signed:(signed_of kind) r (Mbuf.get_u8 r 0))

let var_get_int64 vc ~signed r =
  let g = head_at vc (if signed then k_i64 else k_u64) r in
  if g = wide then wide_int vc ~signed r (Mbuf.get_u8 r 0) else Int64.of_int (skip_head r g)

(* A run reads heads in place into [out.(k ..)], each starting at least
   5 bytes before [stop], so every form's payload lies in the window
   unchecked.  The branch that recognizes a head's tag checks what
   [mp_step]/[cbor_step] check for that form, stores the value and
   advances by the form's constant width, so no head's position waits
   on the payload before it.  A head no branch accepts (non-minimal, out
   of the field's range, a negative form in an unsigned field, an
   8-byte form, another tag, or in the window's last 4 bytes) stops the
   run for [var_get_int] to read or refuse.  The loop makes no call, so
   its variables stay in registers; it returns (next element lsl 31)
   lor bytes read, scanning at most 2^31 - 1 bytes. *)
let[@inline] mp_run ~signed ~lo ~hi out k b cur stop =
  let n = Array.length out and k = ref k and i = ref cur in
  let lim = ref ((if stop - cur > 0x7fff_ffff then cur + 0x7fff_ffff else stop) - 5) in
  while !k < n && !i <= !lim do
    let p = !i in
    let t = u8_at b p in
    if t <= 0x7f && t <= hi then (Array.unsafe_set out !k t; incr k; i := p + 1)
    else if t = 0xce then begin
      let v = i32_at b (p + 1) land 0xffff_ffff in
      if v >= 0x10000 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 5)
      else lim := -1
    end
    else if t = 0xcd then begin
      let v = u16_at b (p + 1) in
      if v >= 0x100 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 3)
      else lim := -1
    end
    else if t = 0xcc then begin
      let v = u8_at b (p + 1) in
      if v >= 0x80 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 2)
      else lim := -1
    end
    else if not signed then lim := -1
    else if t >= 0xe0 && t - 256 >= lo then (Array.unsafe_set out !k (t - 256); incr k; i := p + 1)
    else if t = 0xd2 then begin
      let v = i32_at b (p + 1) in
      if v <= -32769 && v >= lo then (Array.unsafe_set out !k v; incr k; i := p + 5)
      else lim := -1
    end
    else if t = 0xd1 then begin
      let v = sext 2 (u16_at b (p + 1)) in
      if v <= -129 && v >= lo then (Array.unsafe_set out !k v; incr k; i := p + 3)
      else lim := -1
    end
    else if t = 0xd0 then begin
      let v = sext 1 (u8_at b (p + 1)) in
      if v <= -33 && v >= lo then (Array.unsafe_set out !k v; incr k; i := p + 2)
      else lim := -1
    end
    else lim := -1
  done;
  (!k lsl 31) lor (!i - cur)

let[@inline] cbor_run ~signed ~lo ~hi out k b cur stop =
  let n = Array.length out and k = ref k and i = ref cur in
  let lim = ref ((if stop - cur > 0x7fff_ffff then cur + 0x7fff_ffff else stop) - 5) in
  while !k < n && !i <= !lim do
    let p = !i in
    let t = u8_at b p in
    if t <= 0x17 && t <= hi then (Array.unsafe_set out !k t; incr k; i := p + 1)
    else if t = 0x1a then begin
      let v = i32_at b (p + 1) land 0xffff_ffff in
      if v >= 0x10000 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 5)
      else lim := -1
    end
    else if t = 0x19 then begin
      let v = u16_at b (p + 1) in
      if v >= 0x100 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 3)
      else lim := -1
    end
    else if t = 0x18 then begin
      let v = u8_at b (p + 1) in
      if v >= 24 && v <= hi then (Array.unsafe_set out !k v; incr k; i := p + 2)
      else lim := -1
    end
    else if not signed then lim := -1
    else if t >= 0x20 && t <= 0x37 && 0x1f - t >= lo then
      (Array.unsafe_set out !k (0x1f - t); incr k; i := p + 1)
    else if t = 0x3a then begin
      let a = i32_at b (p + 1) land 0xffff_ffff in
      if a >= 0x10000 && lnot a >= lo then (Array.unsafe_set out !k (lnot a); incr k; i := p + 5)
      else lim := -1
    end
    else if t = 0x39 then begin
      let a = u16_at b (p + 1) in
      if a >= 0x100 && lnot a >= lo then (Array.unsafe_set out !k (lnot a); incr k; i := p + 3)
      else lim := -1
    end
    else if t = 0x38 then begin
      let a = u8_at b (p + 1) in
      if a >= 24 && lnot a >= lo then (Array.unsafe_set out !k (lnot a); incr k; i := p + 2)
      else lim := -1
    end
    else lim := -1
  done;
  (!k lsl 31) lor (!i - cur)

(* Built per format and signedness, with the field's range bound once,
   as the fixed-width loops of Codec are built.  Runs alternate with
   single heads read by [var_get_int], so values, errors and
   [Mbuf.Short_buffer] are exactly the one-head path's. *)
let var_fill_ints vc kind =
  let lo = lo_of kind and hi = hi_of kind in
  let run : int array -> int -> bytes -> int -> int -> int =
    match (vc, signed_of kind) with
    | Msgpack, true -> fun o k b c s -> mp_run ~signed:true ~lo ~hi o k b c s
    | Msgpack, false -> fun o k b c s -> mp_run ~signed:false ~lo ~hi o k b c s
    | Cbor, true -> fun o k b c s -> cbor_run ~signed:true ~lo ~hi o k b c s
    | Cbor, false -> fun o k b c s -> cbor_run ~signed:false ~lo ~hi o k b c s
  in
  fun r out ->
    let n = Array.length out and k = ref 0 in
    while !k < n do
      let got = Mbuf.window2 r run out !k in
      Mbuf.skip r (got land 0x7fff_ffff);
      k := got lsr 31;
      if !k < n then begin
        Array.unsafe_set out !k (var_get_int vc kind r);
        incr k
      end
    done

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
