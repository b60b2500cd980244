(** Atom-level wire codec shared by the three stub engines.

    These helpers fix, once, how each {!Mplan.atom} maps runtime values
    to bytes under an encoding (endianness, widened XDR scalars, sign
    handling), so that the optimized, rpcgen-style and interpretive
    engines produce byte-identical messages — the property the central
    qcheck test asserts. *)

exception Decode_error of string
(** Raised for malformed wire data: invalid booleans/characters,
    out-of-range lengths, unknown discriminators. *)

val write_at : Mbuf.t -> be:bool -> int -> Mplan.atom -> Value.t -> unit
(** Unchecked store at a chunk offset ([Mbuf.ensure] already done). *)

val write_const_at : Mbuf.t -> be:bool -> int -> Mplan.atom -> int64 -> unit

val write_stream : Mbuf.t -> be:bool -> Mplan.atom -> Value.t -> unit
(** Checked, aligned append — the per-datum shape of traditional
    stubs. *)

val read_stream : Mbuf.reader -> be:bool -> Mplan.atom -> Value.t
(** Aligned, checked read; sign-extends or zero-extends per the atom's
    signedness and rejects malformed booleans. *)

val read_at : Mbuf.reader -> be:bool -> int -> Mplan.atom -> Value.t
(** Unchecked read at an offset ([Mbuf.need] already done). *)

(** {2 In-window integer kernels}

    Each run of 4-byte integers is one loop, picked when the kernel is
    built (applied to its labels): swapped or native byte order, and
    for reads signed or unsigned 32-bit or one narrowing loop.  It reads
    or stores the buffer's window in place, unchecked, with no call and
    no flag test per element. *)

val read_i32s :
  be:bool -> signed:bool -> bits:int -> Mbuf.reader -> int -> int array
(** [read_i32s ~be ~signed ~bits r n] reads [n] aligned 4-byte integer
    elements of [bits <= 32] bits with one bounds check, in place from
    the reader's window ({!Mbuf.window}), narrowing each exactly as
    {!read_at} narrows one. *)

val read_i32_rows :
  be:bool -> signed:bool -> bits:int -> size:int -> offs:int array ->
  Mbuf.reader -> int -> int array
(** [read_i32_rows ~be ~signed ~bits ~size ~offs r n] reads [n] rows of
    [size] bytes from the cursor, unaligned, checking all [n * size]
    before it allocates: word [j] of row [i], at [offs.(j)] in it and
    narrowed as {!read_i32s} narrows, is element [i * k + j], [k] being
    [Array.length offs >= 1]. *)

val write_i32s : be:bool -> Mbuf.t -> Value.t -> unit
(** [write_i32s ~be w v] stores the elements of [v], a [Vint_array] or
    a [Varray] of integers, as consecutive 4-byte words (their low 32
    bits) from the cursor, in the window ({!Mbuf.wwindow}) of the
    preceding [Mbuf.ensure] of 4 bytes each.  The caller advances. *)

val write_i32_rows :
  be:bool -> align:int -> size:int -> offs:int array -> fill:(int * int) array ->
  shape:Value.row_shape -> Mbuf.t -> Value.t -> int
(** The twin of {!read_i32_rows}: stores the leading rows of [v]
    ([Vint_rows] of [shape], or a [Varray]'s first [Vstruct] trees of
    [shape] with [Vint] leaves) aligned to [align], in the window of the
    caller's reservation, as [size]-byte rows: leaf [j] as the word at
    [offs.(j)], each [(off, word)] of [fill] at [off].  It advances past
    them and returns their number (0 for any other value). *)

val write_var_rows :
  Encoding.varcodec -> bits:int -> signed:bool -> shape:Value.row_shape ->
  Mbuf.t -> Value.t -> int
(** The head form of {!write_i32_rows}: each leaf as the head
    {!Encoding.var_put_ints} stores for it. *)

val swap_i32s : Mbuf.reader -> Mbuf.t -> int -> unit
(** [swap_i32s r w n] stores the next [n] 4-byte words of [r], each
    byte-reversed, from [w]'s cursor, after a [need] and an [ensure] of
    [4 * n]; neither cursor moves.  A relay's pure byte-order swap. *)

val write_i32_fields :
  be:bool -> len:int -> offs:int array -> idxs:int array -> Mbuf.t -> Value.t -> unit
(** The field-run form of {!write_i32s}: member [idxs.(k)] of the
    aggregate [v] (a [Vstruct], [Varray], [Vint_array] or [Vbytes]) is
    stored at offset [offs.(k)] from the cursor, inside a chunk the
    caller reserved and advances over; [len >= 0]: {!check_fixed}. *)

val as_int : Value.t -> int
val as_int64 : Value.t -> int64

(** Length/padding helpers shared by every decode engine
    (plan-compiled, rpcgen-style, interpretive), so the wire conventions
    for counted data live in exactly one place. *)

val read_len : Mbuf.reader -> be:bool -> align:int -> int
(** Aligned 32-bit count read; rejects negative counts with
    {!Decode_error}. *)

val check_bounds :
  what:string -> int -> min_len:int -> max_len:int option -> unit
(** Enforce a decoded count against the type's declared bounds. *)

val check_max : what:string -> int -> int option -> unit
(** Raises [Invalid_argument] naming the bound when an encoder is handed
    [n] elements or characters for a [what] bounded by [max_len]: every
    engine refuses such a value before it stores anything. *)

val check_fixed : int -> int -> unit
(** [check_fixed n len] raises [Invalid_argument] naming both lengths when
    a fixed array of [len] elements is handed [n], before any store. *)

val check_union : Mint.const array -> default:bool -> case:int -> Mint.const -> unit
(** [check_union consts ~default ~case discrim] raises [Invalid_argument]
    before a union's discriminator is stored, unless the value names
    case [case] of the union whose case constants are [consts] with
    [discrim = consts.(case)], or ([case = -1], when [default]) its
    default arm with a [discrim] that is no case's constant.  Every
    engine calls it, so all three refuse alike. *)

val skip_pad : Mbuf.reader -> pad_unit:int -> int -> unit
(** Skip the trailing padding of an [n]-byte variable-length run up to
    the encoding's pad unit. *)

val need_elems : Mbuf.reader -> int -> min_elem:int -> unit
(** [need_elems r n ~min_elem] raises [Mbuf.Short_buffer] unless [n]
    elements of at least [min_elem] bytes each fit in what remains of
    [r] — the check that bounds a count-driven allocation by the bytes
    received. *)

(** Value-dependent wire formats (msgpack, CBOR).  One mapping from
    {!Value.t} to the encoding's emitters and parsers, shared by every
    engine, so differential parity across tiers holds by construction.
    Malformed headers raise {!Decode_error}; truncation surfaces as
    [Mbuf.Short_buffer] like the fixed paths. *)

val write_var :
  Encoding.varcodec -> check:bool -> Encoding.atom_kind -> Mbuf.t ->
  Value.t -> unit
(** Emit one scalar in canonical minimal-width form.  Integers are
    truncated to the declared field width first (the round trip a
    fixed-size store performs).  [check:false] requires the caller to
    have reserved the atom's worst case. *)

val read_var :
  Encoding.varcodec -> Encoding.atom_kind -> Mbuf.reader -> Value.t
(** Checked parse of one scalar; rejects non-minimal encodings and
    values outside the declared field width, so every decoder accepts
    exactly the same inputs. *)

val write_vlen :
  Encoding.varcodec -> check:bool -> Encoding.lenkind -> Mbuf.t -> int ->
  unit

val read_vlen : Encoding.varcodec -> Encoding.lenkind -> Mbuf.reader -> int

val const_to_value : Mint.const -> Value.t
val const_matches : Mint.const -> Value.t -> bool
