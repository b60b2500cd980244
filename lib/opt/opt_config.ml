(* Benchmark-only: bench/e2e sizes its warm-ups with this constant.
   Nothing in the library reads it; a later benchmark change drops
   it. *)
let stage_threshold () = 32
