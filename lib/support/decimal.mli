(** Decimal spelling of integers, appended straight to a buffer. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] to [buf]; a non-negative
    [n] is written a digit at a time, with no intermediate string. *)
