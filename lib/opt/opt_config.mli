(** Benchmark-only settings. *)

val stage_threshold : unit -> int
(** 32.  The end-to-end benchmark sizes its warm-ups with it, and
    nothing in the library reads it.  A later benchmark change removes
    it. *)
