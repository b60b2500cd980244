(** Optimizer pipeline configuration.

    Selects which registered {!Pass} passes run and whether the
    {!Plan_verify} structural verifier runs after each one.  Threads
    from the entry points ({!Plan_cache}, [Stub_opt], [bin/flick],
    [bench]) down to {!Pass.run}.

    The pass {e selection} is part of every plan-cache key (see
    {!Plan_cache.plan}): differently configured pipelines produce
    different plans and must cache separately.  The {e verify} flag is
    not — verification never changes the plan. *)

type selection =
  | All  (** every registered pass, in registration order *)
  | Nothing  (** raw compiler output, no passes *)
  | Only of string list
      (** the named passes only (unknown names are reported by
          {!Pass.validate}; {!Pass.select} keeps registration order) *)

type t = { selection : selection; verify : bool }

val default : unit -> t
(** [All]; verify-after-every-pass iff the [FLICK_VERIFY_PLANS]
    environment variable is "1", "true", "yes" or "on" (re-read at each
    call so tests can toggle it). *)

val all : t
val none : t
val only : string list -> t
(** [all]/[none]/[only names] with [verify = false]. *)

val selection_fingerprint : t -> string
(** Canonical serialization of the selection (not the verify flag) for
    cache keys. *)

(** {1 Tiered execution}

    Process-global policy for the staged (tier 1) encode specializer:
    whether hot marshal plans are promoted to staged flat closures, and
    after how many calls (decoding has one tier).  Global rather than
    per-compile because the decision is baked into cached closures; it
    is serialized into every encoder cache key via
    {!stage_fingerprint}.

    Resolution order: the programmatic setters win over the
    [FLICK_STAGE] environment variable ([unset] = on with threshold 32,
    ["0"] = off, ["N"] = on with threshold [N]), which is re-read at
    each call so tests and the forced-tier-0 CI run can toggle it. *)

val default_stage_threshold : int
(** 32 calls. *)

val stage_enabled : unit -> bool
val stage_threshold : unit -> int

val set_stage_enabled : bool -> unit
val set_stage_threshold : int -> unit
(** Raises [Invalid_argument] on thresholds below 1. *)

val clear_stage_override : unit -> unit
(** Forget the setter overrides; fall back to the environment. *)

val stage_fingerprint : unit -> string
(** ["stage=<bool>,<threshold>"] for cache keys. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** ["all"], ["none"], or comma-separated pass names (with or without
    the canonical ["only:"] prefix [to_string] emits), each optionally
    suffixed ["+verify"] — the [--passes] syntax of [flick dump-plan]
    and [bench/main.exe].  [of_string (to_string c) = Ok c]. *)
