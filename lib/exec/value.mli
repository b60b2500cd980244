(** Runtime values for the executable stub engine.

    The engine plays the role of the C programs that call
    Flick-generated stubs: values model the presented C data structures
    (the substitution DESIGN.md documents).  Every engine — optimized,
    rpcgen-style, and interpretive — marshals and unmarshals exactly
    these values, so their byte streams and timings are directly
    comparable.

    The representation of a (MINT, PRES) pair is fixed by {!rep_kind}:
    scalar arrays use the unboxed {!Vint_array}/{!Vbytes} forms (the
    targets of the paper's memcpy optimization), aggregate arrays use
    boxed {!Varray}.  An array of structs of integer leaves (rectangles)
    also has a flat spelling, {!Vint_rows}, that the optimized decoder
    returns, every encoder accepts and {!equal} equates with the
    [Karray] one. *)

type view = { v_base : bytes; v_off : int; v_len : int }
(** A borrowed byte range.  The decoder's zero-copy forms
    ({!Vstring_view}, {!Vbytes_view}) alias the receive buffer through
    one of these instead of copying the payload out; see the aliasing
    contract on [Mbuf.view_bytes] for how long the range stays valid
    and {!materialize} for converting to owned storage. *)

type row_shape = Rint | Rstruct of row_shape array
(** One {!Vint_rows} element's struct nesting; a rect's is
    [Rstruct [|Rstruct [|Rint; Rint|]; Rstruct [|Rint; Rint|]|]]. *)

type t =
  | Vvoid
  | Vbool of bool
  | Vchar of char
  | Vint of int  (** integers up to 32 bits; unsigned values in [0, 2^32) *)
  | Vint64 of int64
  | Vfloat of float
  | Vstring of string  (** NUL-terminated [char *] *)
  | Vbytes of bytes  (** packed octet/char array *)
  | Vstring_view of view
      (** zero-copy string payload aliasing the receive buffer *)
  | Vbytes_view of view
      (** zero-copy octet payload aliasing the receive buffer *)
  | Vint_array of int array  (** array of scalars up to 32 bits *)
  | Vint_rows of { shape : row_shape; ints : int array }
      (** array of structs of integer leaves of at most 32 bits, row
          major: element [i]'s leaves, in reading order, are [ints]
          from [i * row_width shape].  Another spelling of {!boxed}'s
          {!Varray}, with no box per field for the GC to promote *)
  | Varray of t array
  | Vopt of t option
  | Vstruct of t array
  | Vunion of { case : int; discrim : Mint.const; payload : t }
      (** [case] indexes the MINT union's case list; [-1] selects the
          default arm, with [discrim] carrying the wire tag *)

val string_of_view : view -> string
val bytes_of_view : view -> bytes

val row_width : row_shape -> int

val boxed : t -> t
(** The {!Varray} of {!Vstruct}s of {!Vint}s that {!Vint_rows} spells;
    identity on every other form. *)

val materialize : t -> t
(** Deep-copy every view into owned {!Vstring}/{!Vbytes} storage.
    Identity on view-free values.  Call this before the buffer behind a
    view is invalidated (see the [Mbuf] aliasing contracts) or when a
    value must outlive its message. *)

type kind =
  | Kvoid
  | Kbool
  | Kchar
  | Kint
  | Kint64
  | Kfloat
  | Kstring
  | Kbytes
  | Kint_array of Encoding.atom_kind  (** element kind *)
  | Karray
  | Kopt
  | Kstruct
  | Kunion

val rep_kind : Mint.t -> Mint.idx -> Pres.t -> kind
(** The canonical runtime representation for a MINT/PRES pair.
    {!Pres.Ref} nodes are resolved by the caller before use; passing one
    raises [Invalid_argument]. *)

val equal : t -> t -> bool
(** Content equality: a view form equals the copy form holding the same
    bytes ([Vstring_view] vs [Vstring], [Vbytes_view] vs [Vbytes]) and
    rows their {!boxed} spelling, so differential checks compare
    zero-copy, copying, flat and boxed decodes directly.  Floats
    compare NaN-tolerantly. *)

val pp : Format.formatter -> t -> unit
(** Rows print as their {!boxed} spelling. *)

val length : t -> int
(** The elements of an array-like value (a string's bytes, an optional's
    0 or 1); [Invalid_argument] for a scalar, struct or union. *)

val byte_size : t -> int
(** Approximate payload size in bytes (used to label benchmark series by
    message size). *)
