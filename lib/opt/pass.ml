(* Benchmark-only (see pass.mli): the names bench/e2e's plan probe
   calls.  The plans come out of their compilers finished. *)

type trace = { tr_round : int }
type 'p side = { s_nodes : 'p -> int; s_checks : 'p -> int }

let totals ops subs count =
  count ops + List.fold_left (fun acc sub -> acc + count sub) 0 subs

let encode_side =
  let ops (p : Plan_compile.plan) = p.Plan_compile.p_ops
  and subs (p : Plan_compile.plan) = List.map snd p.Plan_compile.p_subs in
  {
    s_nodes = (fun p -> totals (ops p) (subs p) Mplan.count_ops);
    s_checks = (fun p -> totals (ops p) (subs p) Mplan.count_checks);
  }

let decode_side =
  let ops (p : Dplan.plan) = p.Dplan.d_ops
  and subs (p : Dplan.plan) = List.map (fun (_, f) -> f.Dplan.f_ops) p.Dplan.d_subs in
  {
    s_nodes = (fun p -> totals (ops p) (subs p) Dplan.count_ops);
    s_checks = (fun p -> totals (ops p) (subs p) Dplan.count_checks);
  }

let run_encode ?on_trace:_ p = p
let run_decode ?on_trace:_ p = p
