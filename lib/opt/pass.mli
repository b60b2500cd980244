(** The instrumented pass manager over plan programs.

    A pass is a named, byte-preserving transform over an encode
    ({!Plan_compile.plan}) or decode ({!Dplan.plan}) program.
    {!run} executes the passes an {!Opt_config.t} selects, in
    registration order, instrumenting each with wall time, node and
    bounds-check counts before/after, and — when the config says so —
    the {!Plan_verify} structural verifier.

    The registered pipelines split the {!Peephole} monolith into its
    rewrite classes; running all of them reproduces
    {!Peephole.optimize_plan} / {!Peephole.optimize_dplan} output
    exactly (pinned by test/test_passes.ml), so the default pipeline is
    byte-for-byte the historical optimizer, now observable pass by
    pass. *)

type trace = {
  tr_side : string;  (** "encode" or "decode" *)
  tr_pass : string;
  tr_round : int;  (** fixpoint round, 1-based *)
  tr_nodes_before : int;
  tr_nodes_after : int;
  tr_checks_before : int;
  tr_checks_after : int;
  tr_wall_ns : float;
  tr_verified : bool;  (** the verifier ran (and passed) after this pass *)
}

type 'p pass = {
  p_name : string;
  p_transform : ?stats:Peephole.stats -> 'p -> 'p;
}

(** Instrumentation hooks for one program kind. *)
type 'p side = {
  s_name : string;
  s_nodes : 'p -> int;
  s_checks : 'p -> int;
  s_verify : 'p -> (unit, Plan_verify.error) result;
}

exception
  Verify_failed of { side : string; pass : string; error : Plan_verify.error }
(** Raised by {!run} when verification is on and a pass (or the
    compiler itself, reported as pass ["<compile>"]) breaks a plan
    invariant. *)

val encode_side : Plan_compile.plan side
val decode_side : Dplan.plan side
val forward_side : Fplan.plan side

val encode_passes : Plan_compile.plan pass list
(** ["chunk-coalesce"]; ["loop-blit-fusion"]; ["ensure-hoist"]. *)

val decode_passes : Dplan.plan pass list
(** ["chunk-merge"]; ["loop-ensure-hoist"]. *)

val forward_passes : Fplan.plan pass list
(** ["forward-run-coalesce"]. *)

val encode_pass_names : string list
val decode_pass_names : string list
val forward_pass_names : string list
val pass_names : string list
(** All registered pass names, encode first. *)

val validate : Opt_config.t -> (unit, string) result
(** Check an explicit selection against the registry (either side's
    names are accepted; [flick dump-plan --passes] surfaces the
    error). *)

val select : 'p pass list -> Opt_config.selection -> 'p pass list
(** The subset of [passes] the selection enables.  [All] runs in
    registration order; an explicit [Only] list runs in the {e
    caller's} order (the spelling is fingerprinted into cache keys, so
    reorderings cache separately and never alias).  Unknown names
    select nothing (see {!validate}). *)

val max_rounds : int
(** Fixpoint bound: {!run} repeats the selected pipeline until a round
    records zero {!Peephole} rewrites, at most this many rounds. *)

val run :
  ?config:Opt_config.t ->
  ?stats:Peephole.stats ->
  ?on_trace:(trace -> unit) ->
  'p side ->
  'p pass list ->
  'p ->
  'p
(** Run the selected passes to a fixpoint ([config] defaults to
    {!Opt_config.default}, so [FLICK_VERIFY_PLANS=1] turns the verifier
    on everywhere): the whole pipeline repeats until a round records
    zero rewrites, bounded by {!max_rounds} — one pass can expose work
    for an earlier-ordered one (pinned in test/test_passes.ml).  When
    verifying, the input program is checked once before the first pass,
    then after every pass of every round.  [stats] accumulates
    {!Peephole} rewrite counters across all rounds; [on_trace] receives
    one record per executed pass for round 1 and for any later round
    that rewrote something ([tr_round] tags them).  Wall times read the
    {!Obs} clock, and each pass runs under an [Obs_trace] span
    ([pass:<name>], category ["opt"]) when tracing is enabled. *)

val run_encode :
  ?config:Opt_config.t ->
  ?stats:Peephole.stats ->
  ?on_trace:(trace -> unit) ->
  Plan_compile.plan ->
  Plan_compile.plan

val run_decode :
  ?config:Opt_config.t ->
  ?stats:Peephole.stats ->
  ?on_trace:(trace -> unit) ->
  Dplan.plan ->
  Dplan.plan

val run_forward :
  ?config:Opt_config.t ->
  ?stats:Peephole.stats ->
  ?on_trace:(trace -> unit) ->
  Fplan.plan ->
  Fplan.plan
