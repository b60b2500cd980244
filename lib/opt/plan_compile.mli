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

val max_size :
  enc:Encoding.t ->
  mint:Mint.t ->
  Mint.idx ->
  Pres.t ->
  int option
(** Upper bound on the encoded size, including worst-case padding;
    [None] when unbounded.  The storage-class analysis of section 3.1:
    [Some] with an exact fixed layout is the paper's "fixed" class,
    [Some] otherwise is "variable but bounded", [None] is "unbounded". *)

val min_size : enc:Encoding.t -> mint:Mint.t -> Mint.idx -> Pres.t -> int
(** Lower bound on the encoded size: scalars at their wire size (1 byte
    when value dependent), a count word (or head) per counted array,
    string or optional, fixed arrays element by element (packed bytes
    at 1), a union's discriminator plus its cheapest arm, and 0 for
    alignment, typed headers and named types.  What bounds a
    count-driven allocation by the bytes received. *)
