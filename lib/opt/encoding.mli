(** On-the-wire data encodings (the back-end half of the paper's type
    chain: encoded type <-> MINT <-> PRES <-> CAST).

    An encoding fixes everything MINT deliberately leaves open: sizes,
    alignment, byte order, length-prefix format, padding, and whether
    items carry Mach-style type descriptors.  The first four encodings
    correspond to the paper's four back ends; [msgpack] and [cbor] are
    self-describing formats whose scalar widths depend on the value —
    they carry a {!varcodec} and classify their atoms {!Var}. *)

type atom_kind =
  | Kbool
  | Kchar
  | Kint of { bits : int; signed : bool }
  | Kfloat of { bits : int }

type layout = { size : int; align : int }

type size_class = Fixed of int | Var of { worst : int }
(** How many wire bytes an atom occupies: a static size (every fixed
    encoding, and var-encoding floats: one tag byte plus the IEEE
    payload), or a value-dependent width bounded by [worst] — the
    compiler reserves [worst] and the emit advances by the actual. *)

type lenkind = Lstr | Lbin | Larr
(** The three length-header families of the self-describing formats
    (msgpack fixstr/str8.. vs bin8.. vs fixarray/array16..; CBOR major
    types 3, 2, 4).  Fixed per call site: strings use [Lstr], byte
    sequences [Lbin], element counts (arrays, sequences, options)
    [Larr]. *)

exception Var_error of string
(** Malformed variable-header input (wrong tag family, non-minimal
    width, value outside its field).  [Codec.Decode_error] is this same
    exception, so executors need no translation.  Truncation raises
    {!Mbuf.Short_buffer} instead, exactly as the fixed readers do. *)

type varcodec = Msgpack | Cbor
(** The self-describing formats.  Each has one emitter and one parser,
    which write and read the tag byte and its big-endian payload
    directly in the {!Mbuf}; reservation sizes and constant images are
    derived from them. *)

type t = {
  name : string;
  big_endian : bool;
  atom : atom_kind -> layout;
  len_prefix : layout;  (** variable-length array count *)
  pad_unit : int;
      (** packed byte runs (strings, char/octet arrays) are padded to a
          multiple of this (XDR: 4, CDR: 1) *)
  string_nul : bool;
      (** CDR strings include the terminating NUL in the counted bytes *)
  typed_headers : bool;
      (** Mach 3 typed messages: a 4-byte type descriptor precedes every
          data item *)
  max_align : int;
  granularity : int;
      (** every layout advances the position by a multiple of this (XDR:
          4, others: 1); the plan compiler's static-position tracking
          survives loops and unions exactly at this granularity *)
  var : varcodec option;
      (** value-dependent header hooks; [None] for the fixed formats *)
}

val cdr : t
(** CORBA CDR as used by IIOP: natural sizes and alignment, big-endian
    (we always generate big-endian messages, like a SPARC sender). *)

val xdr : t
(** ONC XDR (RFC 1832): every scalar occupies a multiple of 4 bytes,
    big-endian; opaque/string data padded to 4. *)

val mach3 : t
(** Mach 3 typed messages: little-endian host order with a descriptor
    word before each item. *)

val fluke : t
(** Fluke kernel IPC: packed little-endian words, no descriptors — the
    lean format whose small messages travel in registers. *)

val msgpack : t
(** MessagePack: positive/negative fixints, uint8..64 / int8..64,
    fixstr/str8..32, bin8..32, fixarray/array16/32; multi-byte fields
    big-endian; minimal-width (canonical) forms only. *)

val cbor : t
(** CBOR (RFC 8949) with preferred serialization: 3-bit major type plus
    5-bit additional info, arguments 1/2/4/8 bytes big-endian, minimal
    width enforced on both sides. *)

val all : t list
val by_name : string -> t option

val atom_of_mint : Mint.def -> atom_kind option
(** The atom for a MINT leaf ([None] for aggregates and [Void]). *)

val canon_int : bits:int -> signed:bool -> int64 -> int64
(** Reduce a constant to its wire value at the declared width: keep the
    low [bits], then sign- or zero-extend — the same round trip a
    fixed-size store-then-load performs. *)

(** {2 Variable-header codecs}

    Emitters choose the minimal width; parsers accept only that width
    (RFC 8949 preferred serialization for CBOR), so every engine
    accepts exactly the same inputs.  An emitter with [check:false]
    requires the caller to have reserved the atom's worst case; with
    [check:true] it reserves the bytes it writes ({!var_put_int}: the
    worst integer head, 5 bytes).  A char or an
    integer field of at most 32 bits travels as a native [int]; only
    the 8-byte forms touch [int64]. *)

val var_size : atom_kind -> size_class
(** Wire size of a scalar under either format: floats are [Fixed] (tag
    plus IEEE payload), everything else [Var] with its worst case. *)

val var_float_tag : varcodec -> bits:int -> int
(** The canonical tag byte before a big-endian IEEE payload. *)

val var_put_int : varcodec -> check:bool -> Mbuf.t -> int -> unit
(** Emit an integer already reduced to its field width (in
    [\[-2^31, 2^32)]), through the writer's window. *)

val var_put_ints :
  varcodec -> bits:int -> signed:bool -> Mbuf.t -> int array -> unit
(** [var_put_ints vc ~bits ~signed w a] emits the elements of [a] into
    a [Kint] field of [bits <= 32] bits, each reduced to the field width
    first, inside one writer window ({!Mbuf.wwindow}) whose worst case
    the caller reserved: the heads the same emitter writes for
    [Array.length a] calls to {!var_put_int}.  Partially applied to its
    labels it builds its kernel once. *)

val var_put_int_at : varcodec -> bits:int -> signed:bool -> bytes -> int -> int -> int
(** [var_put_int_at vc ~bits ~signed b i v] stores the head
    {!var_put_ints} stores for [v] at [b.[i]] of a reserved window and
    returns its width.  Partially applied it builds its kernel once. *)

val var_put_int64 :
  varcodec -> check:bool -> signed:bool -> Mbuf.t -> int64 -> unit
(** Emit a 64-bit field's value; [signed:false] reads it as unsigned. *)

val var_put_bool : varcodec -> check:bool -> Mbuf.t -> bool -> unit
val var_put_float : varcodec -> check:bool -> bits:int -> Mbuf.t -> float -> unit
val var_put_len : varcodec -> check:bool -> Mbuf.t -> lenkind -> int -> unit

val var_get_int : varcodec -> atom_kind -> Mbuf.reader -> int
(** Parse one integer into a [Kchar] field or a [Kint] field of at most
    32 bits; rejects values outside the field. *)

val var_fill_ints : varcodec -> atom_kind -> Mbuf.reader -> int array -> unit
(** [var_fill_ints vc kind r out] fills [out] with consecutive integers
    read into [kind] as {!var_get_int} reads one.  Runs of heads parse
    in place from the reader's window, each form's branch advancing by
    its constant width; a head a run declines (an 8-byte form, a
    non-minimal or out-of-range value, another tag, or one in the
    window's last 4 bytes) goes through {!var_get_int}, and the run
    resumes after it.  Values and errors are those of
    [Array.length out] calls to {!var_get_int}.  Partially applied to
    [vc] and [kind] it builds its kernel once. *)

val var_get_int64 : varcodec -> signed:bool -> Mbuf.reader -> int64
(** Parse one integer into a 64-bit field. *)

val var_get_bool : varcodec -> Mbuf.reader -> bool
val var_get_float : varcodec -> bits:int -> Mbuf.reader -> float

val var_get_len : varcodec -> lenkind -> Mbuf.reader -> int
(** Rejects lengths that do not fit in a 31-bit int. *)

val var_const_image : varcodec -> atom_kind -> int64 -> string
(** The bytes the emitter writes for a compile-time constant (run on a
    scratch writer) — what reservation narrowing folds into a fixed
    chunk. *)

val var_len_image : varcodec -> lenkind -> int -> string
