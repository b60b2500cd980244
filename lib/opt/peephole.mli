(** Peephole optimizer over {!Mplan} programs.

    A post-pass catching what {!Plan_compile}'s syntax-directed lowering
    misses, in the spirit of the paper's section 3.2 "optimize the
    generated code like a compiler would":

    - {b chunk coalescing}: adjacent {!Mplan.op.Chunk}s merge into one —
      the second chunk's static offsets shift by the first's size, and a
      single capacity check covers both.  On per-datum plans
      ([chunked:false]) this recovers the chunking the compiler was told
      not to do, including across nested struct boundaries;
    - {b loop fusion}: a loop whose body is a single gapless one-atom
      chunk rooted at the loop variable becomes a
      {!Mplan.op.Put_atom_array} blit;
    - {b ensure hoisting}: when every iteration of a loop advances the
      buffer by a statically bounded number of bytes, one
      {!Mplan.op.Ensure_count} reservation outside the loop replaces the
      per-chunk checks inside;
    - {b dead-op removal}: no-op alignments ([align 1] and doubled
      power-of-two alignments), empty chunks, and reservations made
      redundant by self-ensuring array ops.

    Every rewrite is byte-preserving: an optimized plan writes exactly
    the bytes of the original, for both plan consumers (the stub engine
    and the C emitter).  Capacity checks may move earlier or widen —
    [ensure] only reserves, so that is invisible on the wire. *)

type stats = {
  mutable chunks_merged : int;
  mutable aligns_removed : int;
  mutable loops_fused : int;
  mutable ensures_hoisted : int;
  mutable dead_removed : int;
  mutable heads_narrowed : int;
      (** constant variable-width headers folded into fixed chunks *)
}

val fresh_stats : unit -> stats
val rewrites : stats -> int
(** Total rewrites recorded in a {!stats}. *)

val bounded_advance_ops : Mplan.op list -> int option
(** Static worst-case bound on how far one execution of the op
    sequence advances the buffer position ([None] = unbounded, e.g. a
    dynamic-length string or a [Via_seq] loop).  Used by the
    ensure-hoisting rewrite to size loop reservations and by
    {!Plan_verify} to reject reservations smaller than the body they
    claim to cover. *)

type rewrite_set = {
  rw_coalesce : bool;
      (** adjacent-chunk merging and power-of-two alignment merging *)
  rw_fuse : bool;
      (** gapless scalar loop → {!Mplan.op.Put_atom_array}, and the
          removal of reservations the fused op makes redundant *)
  rw_hoist : bool;  (** loop reservation hoisting *)
  rw_dead : bool;  (** no-op alignments and empty chunks *)
  rw_narrow : bool;
      (** narrow constant [Put_varhead]/[D_get_varhead] reservations to
          fixed chunks of their canonical wire image, re-enabling chunk
          coalescing across them (self-describing encodings only) *)
}
(** Which rewrite classes one run of the engine may apply.  The pass
    manager ({!Pass}) registers one pass per class; composing them in
    registration order reproduces {!optimize} exactly (pinned by
    test/test_passes.ml). *)

val all_rewrites : rewrite_set

val optimize : ?stats:stats -> Mplan.op list -> Mplan.op list
(** Optimize one op sequence with every rewrite enabled.  Idempotent;
    counts rewrites into [stats] when given. *)

val optimize_with :
  rewrite_set -> ?stats:stats -> Mplan.op list -> Mplan.op list
(** {!optimize} restricted to the given rewrite classes. *)

val optimize_plan : ?stats:stats -> Plan_compile.plan -> Plan_compile.plan
(** {!optimize} applied to a plan's body and each of its marshal
    subroutines. *)

val optimize_plan_with :
  rewrite_set -> ?stats:stats -> Plan_compile.plan -> Plan_compile.plan

val optimize_dops : ?stats:stats -> Dplan.dop list -> Dplan.dop list
(** The same rewrites over unmarshal plans: chunk coalescing, alignment
    merging, dead-op removal, and loop reservation hoisting.  Decode
    hoisting is stricter than encode hoisting: [Mbuf.need] raises when
    bytes are missing, so a reservation is hoisted only when every
    iteration advances {e exactly} the same statically known number of
    bytes — an upper bound would reject well-formed messages.  All
    rewrites preserve which messages decode and to what values; on
    truncated input a merged check may surface as [Short_buffer] where
    the original plan failed a later, smaller check. *)

val optimize_dops_with :
  rewrite_set -> ?stats:stats -> Dplan.dop list -> Dplan.dop list
(** {!optimize_dops} restricted to the given rewrite classes
    ([rw_fuse] has no decode-side effect: the compiler emits
    [D_get_atom_array] directly). *)

val optimize_dplan : ?stats:stats -> Dplan.plan -> Dplan.plan
(** {!optimize_dops} applied to a decode plan's body and each of its
    unmarshal subroutines. *)

val optimize_dplan_with :
  rewrite_set -> ?stats:stats -> Dplan.plan -> Dplan.plan

(** {1 Forward-plan rewrites}

    The same engine over {!Fplan} programs, registered as the
    [forward-run-coalesce] pass.  The transform is byte-preserving on the
    destination and accepts exactly the messages the input plan accepts,
    with the same check-motion caveat as the decode rewrites: a merged
    bounds check may surface as [Short_buffer] where the original plan
    failed a later, smaller check. *)

val forward_coalesce : ?stats:stats -> Fplan.fop list -> Fplan.fop list
(** Merge adjacent {!Fplan.fop.F_run}s (the second run's moves shift by
    the first's sizes; one check per side covers both — counted under
    [chunks_merged]) and then merge contiguous [Fm_copy] / [Fm_zero]
    moves inside each run, recursing into loop and optional bodies. *)
