(** The unmarshal plan: decode-side mirror of {!Mplan}.

    {!Dplan_compile} lowers a (MINT, PRES, encoding) triple into this
    IR with the same section-3 optimizations the encode side gets:

    - {b chunking}: consecutive fixed-size loads merge into a
      {!constructor-D_chunk} — one [Mbuf.need] bounds check, loads at
      constant offsets via the unchecked [Mbuf.get_*] reads, one cursor
      advance.  Spans no item covers (typed headers, alignment padding)
      are simply skipped by the advance;
    - {b memcpy specialization}: packed byte runs are bulk reads
      ({!constructor-D_get_byteseq}, {!constructor-Dit_bytes}) and
      scalar arrays decode in one tight loop behind a single
      reservation ({!constructor-D_get_atom_array});
    - {b zero-copy views}: string/byte-sequence payloads marked [view]
      may be returned as [Value.Vstring_view]/[Vbytes_view] slices of
      the receive buffer instead of copies, when scatter-gather views
      are enabled and the payload clears the borrow threshold;
    - {b inlined control flow} with {!constructor-D_call} exactly at
      the recursion points of self-referential types.

    Each load names the numbered {e slot} of its frame that it fills,
    and a {!shape} tree says how the frame's slots assemble into its
    value.  Naming decouples wire order from construction order, which
    is what lets one chunk span several struct fields.  Slots need not
    exist at runtime: a frame whose ops fill slots in the order its
    shape reads them, or that is one fixed chunk, is built straight
    into its value ({!frame_build}); only the rest decode into a slot
    array first. *)

type shape =
  | Sh_void
  | Sh_slot of int
  | Sh_struct of shape list

type ditem =
  | Dit_atom of { off : int; atom : Mplan.atom; slot : int }
  | Dit_bytes of { off : int; len : int; slot : int }
      (** small fixed byte run, copied out of the chunk *)
  | Dit_const of { off : int; atom : Mplan.atom; value : int64 }
      (** verify a constant word; mismatch raises [Codec.Decode_error] *)

(** How a variable-length op learns its element count. *)
type dcount =
  | Dc_fixed of int  (** statically known; nothing on the wire *)
  | Dc_len of { min_len : int; max_len : int option; what : string }
      (** 32-bit wire count, checked against the declared bounds *)

type dop =
  | D_align of int
  | D_chunk of { size : int; items : ditem list; check : bool }
      (** [check] is false when a hoisted loop reservation already
          guarantees the bytes *)
  | D_get_varhead of {
      vh_kind : Encoding.atom_kind;
      vh_worst : int;
      vh_slot : int;
    }
      (** parse a value-dependent scalar header of a self-describing
          encoding; always self-checking (its advance is data
          dependent, so it can never ride a hoisted reservation).  An
          expected constant is no head but its image's bytes, compared
          in a chunk *)
  | D_get_string of { max_len : int option; slot : int; view : bool }
  | D_const_str of string
  | D_get_byteseq of { count : dcount; slot : int; view : bool }
  | D_get_atom_array of {
      count : dcount;
      atom : Mplan.atom;
      var : bool;
          (** value-dependent elements (self-describing encodings): the
              array's advance is never static *)
      slot : int;
    }
  | D_loop of { count : dcount; ensure : int option; elem_min : int; frame : frame; slot : int }
      (** [ensure = Some u]: every iteration advances exactly [u]
          bytes, so the executor reserves [count * u] once and interior
          chunks run check-free.  [elem_min]: the fewest bytes one
          element takes ({!Plan_compile.size}), what the count is
          checked against before anything is allocated *)
  | D_opt of { frame : frame; slot : int }
      (** optional pointer: wire count 0 or 1 *)
  | D_switch of {
      discrim_atom : Mplan.atom option;  (** [None]: string-keyed *)
      arms : darm list;
      default : frame option;
      slot : int;
    }
  | D_call of { sub : string; slot : int }

and darm = { d_const : Mint.const; d_case : int; d_frame : frame }

and frame = { f_nslots : int; f_ops : dop list; f_shape : shape }
(** One decoding scope (loop body, union arm, subroutine, or the plan's
    top level): ops fill the frame's slots, then [f_shape] assembles
    them into the frame's value. *)

type plan = {
  d_nslots : int;
  d_ops : dop list;
  d_shapes : shape list;  (** one per decoded output value, in order *)
  d_subs : (string * frame) list;
}

val pp_op : Format.formatter -> dop -> unit
val pp : Format.formatter -> dop list -> unit
val pp_plan : Format.formatter -> plan -> unit

val count_ops : dop list -> int
(** Total number of nodes — the decode analog of {!Mplan.count_ops}. *)

val count_checks : dop list -> int
(** Static count of bounds-check sites (checked chunks plus the
    self-checking variable-length reads); loop bodies count once. *)

(** {2 How the executor builds each frame's value} *)

(** How a loop of integer rows reads a row: one [size]-byte chunk after
    an alignment dividing it, with the leaves' 4-byte words at [offs]
    (other bytes, e.g. mach3's descriptors, skipped), or one head per
    leaf. *)
type rows_layout =
  | Rows_words of { align : int; size : int; offs : int list }
  | Rows_heads

type rows = { r_kind : Encoding.atom_kind; r_width : int; r_layout : rows_layout }
(** [r_width >= 1] leaves per row, each of kind [r_kind], an int of at
    most 32 bits. *)

type build =
  | Direct_chunk
      (** the frame is one fixed chunk, optionally after an
          alignment: one check, each item loaded at its constant
          offset straight into the shape, one advance *)
  | In_order
      (** the ops fill slots in the order the shape reads them, so each
          value is built as it is read, with no slot array *)
  | Slot_frame of string
      (** the shape reads slots out of wire order (the reason): the
          frame decodes into a per-call slot array first *)
  | Int_rows of rows
      (** a loop body ({!loop_build} only): the loop decodes to one
          row-major int array, [Value.Vint_rows], with one kernel call *)

val frame_build : frame -> build

val plan_build : plan -> build
(** The top frame, whose shapes are the plan's roots. *)

val loop_build : frame -> build
(** A [D_loop] over this body: {!Int_rows} when the shape is a struct
    tree reading slots [0 .. k-1] in order and the ops fill them in
    order with [k] loads of one integer kind of at most 32 bits, either
    4-byte words of one chunk at increasing offsets, after at most one
    [D_align] dividing its size, or [D_get_varhead]s expecting no
    constant.  Otherwise {!frame_build}.  The one place that decides
    which loops are rows. *)

type row_store = {
  rs_rows : rows;
  rs_shape : shape;  (** the row's struct tree, leaf [j] being [Sh_slot j] *)
  rs_fill : (int * int64) list;
      (** [Rows_words]: every other 4-byte word of the row, at its
          offset, with the constant it holds (0 for a gap) *)
}

val store_rows : var:int -> Mplan.op list -> row_store option
(** The encode twin of {!loop_build}: a [Loop] over element [var] whose
    body stores a struct tree's [k >= 1] integer leaves, of one kind of
    at most 32 bits, in reading order: as 4-byte words at increasing
    multiples of 4 in one unchecked chunk (after at most one [Align]
    dividing its size), its other words 4-byte constants or gaps; or as
    [k] unchecked [Put_varhead]s.  The one place that decides which
    encode loops are rows. *)

val build_name : build -> string
(** ["direct chunk"], ["in order"], ["slot frame: <reason>"], or
    ["int rows ×<k> <kind>"] (plus [", stride <size>"] when a row's
    chunk holds more than its leaves). *)

val frame_builds : plan -> (string * build) list
(** Every frame of the plan, top first, each under its path (["top"],
    ["top/s0 loop"], ["sub name"], ...). *)
