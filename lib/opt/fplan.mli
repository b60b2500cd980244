(** The forward plan: a fused decode+encode program for gateway
    relaying — cross-chunk copy propagation across a decode plan
    ({!Dplan}) and an encode plan ({!Mplan}) for the same message
    shape.

    A gateway that re-encodes a message it just decoded normally
    materializes every field as a [Value.t] and marshals it again.
    {!Fplan_compile} walks the two plans in lockstep and pairs their
    (offset, atom) runs into direct reader→writer operations instead:

    - {b blit}: a span whose bytes are identical under both encodings
      (same sizes, same byte order, full-width integers) moves with one
      {!Mbuf.copy_at} — or is spliced by reference ({!Mbuf.transfer}
      with borrow, zero bytes touched) when it clears the borrow
      threshold;
    - {b convert}: a scalar whose representation differs (byte order,
      width, normalization) is re-read and re-written in place, still
      without touching a [Value.t];
    - {b fixup}: source-side constants are verified and skipped,
      destination-side constants/padding are regenerated — gap bytes
      are never copied from the source;
    - {b fallback}: a genuinely reshaped root keeps the decode +
      re-encode pair as an embedded {!constructor-F_materialize}.

    Executed by [Stub_forward] (lib/exec); verified by
    {!Plan_verify.check_fplan}; optimized by the [forward-*] passes in
    {!Pass}. *)

(** Element count of a variable-length forward op. *)
type fcount =
  | Fc_fixed of int  (** statically known; nothing on the wire *)
  | Fc_wire of { min_len : int; max_len : int option; what : string }
      (** 32-bit source wire count, checked against declared bounds *)

(** One move inside a fused run, offsets relative to the run's start on
    the respective side. *)
type fmove =
  | Fm_copy of { src_off : int; dst_off : int; len : int }
      (** bytes identical under both encodings *)
  | Fm_convert of {
      src_off : int;
      src_atom : Mplan.atom;
      dst_off : int;
      dst_atom : Mplan.atom;
    }  (** re-read under the source layout, re-write under the
          destination layout *)
  | Fm_check of { src_off : int; atom : Mplan.atom; value : int64 }
      (** verify a source constant (discriminators, type headers) *)
  | Fm_const of { dst_off : int; atom : Mplan.atom; value : int64 }
      (** regenerate a destination constant *)
  | Fm_zero of { dst_off : int; len : int }
      (** destination padding/gap bytes *)

type fop =
  | F_src_align of int  (** skip source padding to a power of two *)
  | F_dst_align of int  (** emit destination padding to a power of two *)
  | F_run of {
      src_size : int;
      dst_size : int;
      src_check : bool;  (** one [need src_size] covers every move *)
      dst_check : bool;  (** one [ensure dst_size] covers every move *)
      moves : fmove list;
    }  (** the fused chunk: fixed spans on both sides, one bounds check
          per side, then straight-line moves *)
  | F_blit of { len : int; src_pad : int; dst_tail : int; borrow : bool }
      (** fixed-length packed byte run split out for zero-copy:
          [src_pad] is the source pad unit to skip past, [dst_tail] the
          absolute zero tail on the destination *)
  | F_string of {
      max_len : int option;
      src_nul : bool;
      dst_nul : bool;
      src_pad : int;
      dst_pad : int;
      borrow : bool;
    }  (** counted string: length word re-emitted under destination
          conventions, payload transferred, NUL/pad regenerated *)
  | F_const_str of { s : string; src_nul : bool; src_pad : int; image : string }
      (** constant key: verified on the source side, emitted from a
          precomputed destination image *)
  | F_byteseq of {
      count : fcount;
      emit_len : bool;
      src_pad : int;
      dst_pad : int;
      borrow : bool;
    }
  | F_atom_array of {
      count : fcount;
      emit_len : bool;
      src_atom : Mplan.atom;
      dst_atom : Mplan.atom;
      dst_packed : bool;
          (** destination was an unrolled item run inside a chunk:
              store densely at the current position with one [ensure],
              no dynamic alignment or length word *)
      blit : bool;  (** element bytes identical → bulk transfer *)
      borrow : bool;
    }
  | F_counted_blit of {
      count : fcount;
      emit_len : bool;
      unit_size : int;
      borrow : bool;
    }  (** a collapsed loop whose body was one same-bytes run: transfer
          [count * unit_size] bytes in one move *)
  | F_loop of {
      count : fcount;
      emit_len : bool;
      src_min : int;
          (** the fewest source bytes one element takes (the decode
              loop's [elem_min]): the count is checked against the
              source's remaining bytes at this many per element before
              either side reserves or allocates *)
      src_ensure : int option;
          (** every iteration consumes exactly this many source bytes:
              reserve [count * u] once, interior runs check-free *)
      dst_ensure : int option;
      body : fop list;
    }
  | F_opt of { body : fop list }
      (** optional pointer: 0/1 count word verified and re-emitted *)
  | F_materialize of {
      index : int;  (** root index, for provenance (-1: whole message) *)
      dplan : Dplan.plan;
      mplan : Plan_compile.plan;
    }  (** fallback: decode this root to values, re-encode them *)

type plan = { f_ops : fop list; f_src : Encoding.t; f_dst : Encoding.t }

val provenance : fop -> string
(** The op's copy-elision class, one of ["blit"], ["borrow"],
    ["convert"], ["fixup"], ["fallback"], or a structural tag
    (["align"], ["loop"], ["opt"]) — what [dump-plan --forward]
    annotates each line with. *)

val pp_op : Format.formatter -> fop -> unit
val pp : Format.formatter -> fop list -> unit
val pp_plan : Format.formatter -> plan -> unit

val count_ops : fop list -> int
(** Total node count; embedded fallback plans count their own nodes. *)

val count_checks : fop list -> int
(** Static count of bounds-check sites across both sides. *)
