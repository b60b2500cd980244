(** Forward-plan fusion: cross-chunk copy propagation.

    [fuse] compiles a decode plan under the {e source} encoding and an
    encode plan under the {e destination} encoding for the same root
    list, then walks the two op streams in lockstep, pairing their
    (offset, atom-run) spans into the direct reader→writer program of
    {!Fplan}:

    - fixed chunks on both sides explode into their items plus the
      gaps between them (sorted by offset — wire order, which is the
      same field order under every encoding) and pair piecewise:
      same-representation spans coalesce into {!Fplan.Fm_copy} moves,
      differing scalars become {!Fplan.Fm_convert}, source constants
      are verified ({!Fplan.Fm_check}), destination constants and
      padding regenerated ({!Fplan.Fm_const}/{!Fplan.Fm_zero}) — gap
      bytes never cross sides;
    - variable-length ops pair structurally (string↔string,
      byteseq↔byteseq, scalar array↔scalar array or the unrolled item
      run the encode side kept inside a chunk, loop↔loop with bodies
      fused recursively, optional↔optional);
    - anything that does not pair — unions, recursive calls, plans with
      subroutines, reshaped fields — falls back to an
      {!Fplan.F_materialize} for that root alone.

    {b Per-root compilation.}  Each root is compiled on its own so a
    single unsupported root does not poison the rest of the message.
    Roots after the first start at the weakest alignment any complete
    root can leave behind (the encoding's granularity), which can only
    {e add} dynamic align ops relative to the whole-message plan — the
    emitted bytes are identical.  An encode root whose plan reads
    parameters beyond its own (a string with a separate length
    parameter) forces a whole-message materialize, since per-root
    decoding cannot supply foreign parameters.

    {b Soundness.}  A byte moves raw only when decode-then-reencode is
    the identity on it: full-width integers and single-byte chars with
    matching sizes and byte order.  Bools, wide chars, floats, and
    sub-width integers convert through {!Codec} read/write, reproducing
    the baseline's normalization exactly.  Adjacent runs then merge,
    as adjacent chunks do, and contiguous copies and zero fills inside a
    run become one move each.  {!Plan_verify.check_fplan} re-checks the
    output's bounds obligations under [FLICK_VERIFY_PLANS]. *)

exception Unsupported of string
(** An op pair that cannot fuse; caught internally, surfaces only as an
    {!Fplan.F_materialize} fallback. *)

val set_enabled : bool -> unit
(** Globally disable fusion ([--no-forward]): [fuse] then returns a
    whole-message materialize plan — the decode-then-reencode baseline
    behind the forward-plan interface. *)

val enabled : unit -> bool

val fingerprint : unit -> string
(** Cache-key component covering the enable flag. *)

val fuse :
  src:Encoding.t ->
  dst:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?sg:bool ->
  ?sg_threshold:int ->
  Dplan_compile.droot list ->
  Plan_compile.root list ->
  Fplan.plan
(** [fuse ~src ~dst ~mint ~named droots roots] builds the fused forward
    plan relaying a [src]-encoded message as a [dst]-encoded one.  The
    two root lists must have equal length and describe the same message
    shape (as the gateway's paired request specs do).  [sg] /
    [sg_threshold] (defaulting to the {!Mbuf} globals) gate the borrow
    paths, exactly as they do for the underlying plans.  Total: every
    unsupported shape degrades to materialization, never an error. *)
