(** Benchmark-only: the names the end-to-end benchmark's plan probe
    still calls ([bench/e2e/meter.ml]).  The plan compilers do what the
    optimizer passes did, so {!run_encode} and {!run_decode} return the
    plan unchanged and never call [on_trace]; the probe's [pass.*] rows
    time these calls.  Nothing in the library, the CLI or the tests
    uses this module.  A later benchmark change removes it. *)

type trace = { tr_round : int }

type 'p side = {
  s_nodes : 'p -> int;  (** plan nodes, {!Mplan.count_ops} or {!Dplan.count_ops} *)
  s_checks : 'p -> int;  (** bounds-check sites *)
}

val encode_side : Plan_compile.plan side
val decode_side : Dplan.plan side

val run_encode :
  ?on_trace:(trace -> unit) -> Plan_compile.plan -> Plan_compile.plan

val run_decode : ?on_trace:(trace -> unit) -> Dplan.plan -> Dplan.plan
