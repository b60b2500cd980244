(** The optimizing marshal-plan compiler (paper section 3).

    Lowers (MINT, PRES, encoding) triples into {!Mplan} programs,
    implementing Flick's domain-specific optimizations:

    - {b storage analysis}: every subtree is classified fixed / bounded
      / unbounded by walking the MINT graph with the encoding's layouts
      (section 3.1 "marshal buffer management");
    - {b chunking}: consecutive data whose positions are statically
      known merge into one {!Mplan.op.Chunk} — one capacity check, one
      pointer advance, stores at constant offsets (section 3.2's common
      subexpression elimination on message pointers).  Static position
      knowledge is tracked as a congruence (position ≡ offset mod base),
      which survives XDR's 4-byte padding discipline across
      variable-length data but is lost after CDR strings, exactly where
      real stubs must re-align dynamically;
    - {b memcpy}: byte-identical runs (strings, octet sequences, char
      arrays) become blits; scalar arrays become single tight loops;
      aggregate arrays remain element-by-element, which is why the
      paper's integer arrays marshal faster than its rectangle arrays;
    - {b inlining}: everything is expanded in place except
      self-referential types, which compile to named subroutines invoked
      by {!Mplan.op.Call} (section 3.3);
    - {b arrays of fixed-size elements} are covered by one
      {!Mplan.op.Ensure_count} and their per-element chunks skip the
      capacity check. *)

type root =
  | Rconst_int of int64 * Encoding.atom_kind
      (** a constant discriminator (procedure number, union tag) *)
  | Rconst_str of string  (** a constant string discriminator (GIOP op name) *)
  | Rvalue of Mplan.rv * Mint.idx * Pres.t

type plan = {
  p_ops : Mplan.op list;
  p_subs : (string * Mplan.op list) list;
      (** marshal subroutines for self-referential types; each takes its
          value as parameter 0 (named ["_v"]) *)
}

val compile :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?start:int * int ->
  ?unroll_limit:int ->
  ?chunked:bool ->
  ?sg:bool ->
  ?sg_threshold:int ->
  root list ->
  plan
(** [compile ~enc ~mint ~named roots] produces the marshal plan for the
    given message body.  [start] is the static alignment congruence of
    the first byte (default [(8, 0)]: the body begins max-aligned).
    Fixed scalar arrays of at most [unroll_limit] elements (default 64)
    are unrolled into their surrounding chunk.  [chunked:false] disables
    the section 3.1/3.2 chunk merging — every atom gets its own
    capacity check and pointer advance — and exists for the ablation
    benchmarks.  [sg] (default {!Mbuf.sg_enabled}) marks blit-shaped ops
    borrowable for the scatter-gather wire path and splits fixed byte
    runs of at least [sg_threshold] (default {!Mbuf.borrow_threshold})
    bytes out of their chunk as {!Mplan.op.Put_blit}. *)

(** What the plan compilers know statically of a position: it is
    [aoff] modulo [abase], a power of two. *)
type pos = { abase : int; aoff : int }

val advance : pos -> int -> pos
(** After [n] more bytes. *)

val lose : pos -> int -> pos
(** Known only modulo [u] (and no better than before). *)

val aligned : int -> pos
(** Just after a dynamic alignment to [a]. *)

val static_pad : pos -> int -> int option
(** The padding before an atom aligned to [a]; [None] when the
    congruence cannot tell and the stub must align dynamically. *)

val atom_of : Encoding.t -> Encoding.atom_kind -> Mplan.atom
(** The encoding's layout for one atom, as a plan atom. *)

val u8_atom : Mplan.atom
(** One unaligned byte — the tag slot preceding a float payload under a
    value-dependent encoding. *)

val vh_worst_of : Encoding.atom_kind -> int
(** Worst-case wire width of one value-dependent scalar (the
    reservation a [Put_varhead]/[D_get_varhead] carries). *)

val len_atom : Encoding.t -> Mplan.atom
(** The encoding's length-prefix word as a plan atom (also the Mach
    typed-header descriptor layout). *)

val round_up : int -> int -> int
(** [round_up n unit] — smallest multiple of [unit] that is [>= n]. *)

type size = { min : int; max : int option }

val size :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?start:int * int ->
  Mint.idx ->
  Pres.t ->
  size
(** The storage analysis of section 3.1, the one static size model.
    [min] is the fewest bytes the decoders read: typed-header words,
    one count word (a 1-byte head when value dependent) per string,
    counted run or optional, scalars at their wire size, a union's
    discriminator and cheapest arm, a named type's body from [named]
    looked through once, and no padding.  [max] is the most bytes the
    encoder writes from alignment congruence [start] (default
    [(8, 0)]), each atom padded as {!compile} pads it; [None] when a run
    is unbounded or the value reaches a named type.  {!compile} sizes
    each loop's {!Mplan.op.Ensure_count} from [max]; the decoders check
    a count against [min] before they allocate. *)
