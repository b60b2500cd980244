(** Structural verifier for marshal and unmarshal plans.

    Checks the invariants the plan compilers establish, re-derived
    independently of them so a compiler bug cannot hide behind its own
    checker:

    - chunk items sit at monotone, non-overlapping static offsets whose
      extents (atom sizes, blit lengths + padding) fit the chunk;
    - every store is covered by a check: a chunk with [check = false]
      appears only under a reservation that guarantees its bytes
      (encode: an {!Mplan.op.Ensure_count} immediately before the loop;
      decode: a [D_loop] with [ensure = Some _]);
    - a hoisted decode reservation equals the frame's {e exact} advance
      — decode bounds checks raise, so an upper bound would reject
      well-formed messages — and a loop's stamped element minimum
      ([D_loop]'s [elem_min], [F_loop]'s [src_min]) never exceeds that
      advance, for the same reason;
    - loop bodies are well-nested: [Rvar] references are in scope and
      loop variables do not shadow;
    - decode slots are written exactly once, lie inside their frame,
      and the shape tree reads only written slots;
    - [Call] / [D_call] targets resolve among the plan's subroutines;
    - scalar sanity: power-of-two alignments, non-negative lengths,
      padding, and length bounds.

    The checks are pure and total: they return [Error] with a path into
    the plan instead of raising.  {!checked} runs one on each plan the
    compilers produce under [FLICK_VERIFY_PLANS=1];
    test/test_verify.ml runs it on random compiled plans and pins that
    seeded corruptions are caught. *)

type error = { ev_path : string; ev_msg : string }

val error_to_string : error -> string

val check_plan : Plan_compile.plan -> (unit, error) result
val check_dplan : Dplan.plan -> (unit, error) result

val check_fplan : Fplan.plan -> (unit, error) result
(** Forward-plan obligations, in the same spirit: every blit inside a
    fused run lies at monotone, non-overlapping offsets covered by the
    run's single source check and destination reservation; a run that
    skips a check on a side it touches appears only under a loop
    reservation for that side; a loop's source reservation equals the
    body's exact static consumption while its destination reservation
    bounds the body's emission from above; embedded
    {!Fplan.fop.F_materialize} fallbacks re-check their decode and
    encode plans recursively. *)

exception Rejected of { side : string; error : error }
(** A compiled plan broke an invariant; [side] is ["encode"],
    ["decode"] or ["forward"]. *)

val checked : side:string -> ('p -> (unit, error) result) -> 'p -> 'p
(** [checked ~side check plan] is [plan].  When the [FLICK_VERIFY_PLANS]
    environment variable is "1", "true", "yes" or "on" (read at each
    call), it first runs [check] on the plan and raises {!Rejected} if
    the plan breaks an invariant.  {!Plan_cache} applies it to each plan
    it compiles and [Fplan_compile.fuse] to each fused plan. *)
