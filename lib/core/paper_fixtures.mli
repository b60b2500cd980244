(** The interfaces and workloads of the paper's evaluation (section 4).

    The tested methods: one taking an array of integers, one an array of
    rectangle structures (two coordinate pairs each), and one an array
    of variable-size directory entries (a name string plus a 136-byte
    stat-like structure, about 256 encoded bytes per entry).  All three
    live on one [Bench] interface; the [Mail] interface is the paper's
    introductory example. *)

val mail_corba : string
val mail_onc : string
val bench_idl : string
(** CORBA IDL for the [Bench] interface. *)

val dir_idl : string
(** The directory interface used for Table 2's object-code comparison. *)

val dir_idl_noexc : string
(** [dir_idl] without its [raises] clause, for presentations that cannot
    express exceptions. *)

val bench_presc : [ `Corba | `Rpcgen | `Fluke ] -> Pres_c.t
(** The [Bench] presentation under each style (all derived from the same
    AOI — the kit's cross-presentation flexibility at work). *)

val dir_presc : [ `Corba | `Rpcgen ] -> Pres_c.t

(** Engine-ready description of one operation's request message. *)
type method_spec = {
  ms_name : string;
  ms_mint : Mint.t;
  ms_named : (string * (Mint.idx * Pres.t)) list;
  ms_roots : Plan_compile.root list;
  ms_droots : Stub_opt.droot list;
}

val request_spec : Pres_c.t -> op:string -> method_spec
(** Raises if the operation does not exist. *)

val payload : [ `Ints | `Rects | `Dirents ] -> bytes:int -> Value.t
(** The three workloads, sized to approximately [bytes] of payload. *)

val op_of_payload : [ `Ints | `Rects | `Dirents ] -> string
