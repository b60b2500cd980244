(* Compare two results files against the bounds in BENCHMARK.json.

     compare.exe [--spec BENCHMARK.json] BASE.json CHANGE.json
     compare.exe [--spec BENCHMARK.json] RESULTS.json

   The second form compares the first two sets of one file (two sets of
   runs of the same commit, e.g. baseline.json).  For every workload x
   end-to-end metric it prints both medians and quartiles and a
   verdict:
     worse      the change's median is worse by more than the bound;
     better     it is better by more than the base's own spread;
     unresolved either side's spread (IQR / median) exceeds the bound,
                or either side holds a single run;
     unchanged  otherwise.
   A single run's spread is that of its rounds, which cannot see a
   slowdown lasting the whole run, so a verdict needs files made with
   --runs K, K >= 2, on both sides.
   Then the per-layer medians and their change, for attribution.
   Exits 1 when any metric is worse. *)

let spec_path = ref "BENCHMARK.json"
let files = ref []

let () =
  Arg.parse
    [ ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json (default ./BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "compare.exe [--spec BENCHMARK.json] BASE.json [CHANGE.json]"

let base, change =
  match !files with
  | [ a; b ] -> (List.hd (Cell.read_sets a), List.hd (Cell.read_sets b))
  | [ a ] -> (
      match Cell.read_sets a with
      | x :: y :: _ -> (x, y)
      | _ -> failwith (a ^ ": fewer than two sets to compare"))
  | _ ->
      prerr_endline "usage: compare.exe [--spec BENCHMARK.json] BASE.json [CHANGE.json]";
      exit 2

let spec = Cell.read_spec !spec_path

let find (s : Cell.set) w m =
  List.find_opt (fun (r : Cell.row) -> r.workload = w && r.metric = m && not (Cell.is_absent r)) s.rows

let single_run = base.runs < 2 || change.runs < 2

let verdict (d : Cell.decl) (b : Cell.row) (c : Cell.row) =
  let bound = Option.value d.d_bound ~default:0. in
  let bm = Cell.med b and cm = Cell.med c in
  let worse_by = (if d.d_better = "lower" then cm -. bm else bm -. cm) /. Float.abs bm in
  let sb = Cell.spread b and sc = Cell.spread c in
  if single_run || Float.max sb sc > bound then ("unresolved", worse_by)
  else if worse_by > bound then ("worse", worse_by)
  else if -.worse_by > sb then ("better", worse_by)
  else ("unchanged", worse_by)

let () =
  let worse = ref 0 in
  Printf.printf "base: seed %d, %d run(s)   change: seed %d, %d run(s)\n\n" base.seed base.runs
    change.seed change.runs;
  if single_run then
    print_endline
      "a side holds a single run: its spread is within that run only, so every verdict is \
       unresolved (record both sides with --runs K, K >= 2)\n";
  Printf.printf "%-9s %-16s %12s %25s %12s %25s %8s %6s  %s\n" "workload" "metric" "base"
    "[q1, q3]" "change" "[q1, q3]" "worse" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (d : Cell.decl) ->
          match (find base w d.d_name, find change w d.d_name) with
          | Some b, Some c ->
              let v, worse_by = verdict d b c in
              if v = "worse" then incr worse;
              Printf.printf "%-9s %-16s %12s %25s %12s %25s %+7.2f%% %5.1f%%  %s\n" w d.d_name
                (Cell.fmt (Cell.med b))
                (Printf.sprintf "[%s, %s]" (Cell.fmt (Cell.q1 b)) (Cell.fmt (Cell.q3 b)))
                (Cell.fmt (Cell.med c))
                (Printf.sprintf "[%s, %s]" (Cell.fmt (Cell.q1 c)) (Cell.fmt (Cell.q3 c)))
                (100. *. worse_by)
                (100. *. Option.value d.d_bound ~default:0.)
                v
          | _ -> Printf.printf "%-9s %-16s missing on one side\n" w d.d_name)
        spec.end_to_end)
    spec.workloads;
  Printf.printf "\n%-9s %-44s %14s %14s %9s\n" "workload" "per-layer metric" "base" "change" "delta";
  List.iter
    (fun w ->
      List.iter
        (fun (d : Cell.decl) ->
          match (find base w d.d_name, find change w d.d_name) with
          | Some b, Some c ->
              let bm = Cell.med b and cm = Cell.med c in
              Printf.printf "%-9s %-44s %14s %14s %s\n" w d.d_name (Cell.fmt bm) (Cell.fmt cm)
                (if bm = 0. then "-" else Printf.sprintf "%+8.2f%%" (100. *. (cm -. bm) /. Float.abs bm))
          | _ -> ())
        spec.per_layer)
    spec.workloads;
  exit (if !worse = 0 then 0 else 1)
