(* The end-to-end benchmark.

   One workload, in this process, for a caller that runs each
   workload itself:
     main.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
   prints the workload's rows, then one JSON line with the metrics
   BENCHMARK.json declares: the end-to-end ones untraced, the
   per-layer ones traced.

   Every workload, each in its own child process, one at a time:
     main.exe --seed N [--seconds S] [--trace 0|1] [--runs K] [--sets M]
              [--out FILE]
   prints every row and writes them to FILE; --trace 1 adds one traced
   run per workload, which also writes <dir of FILE>/<workload>.trace.json.
   With K runs the rows hold the K per-run medians (seeds N .. N+K-1);
   set M starts at seed N + 1000 M.

   Exits non-zero on any correctness failure, and in the second form
   also when a metric BENCHMARK.json declares is missing. *)

let workloads =
  [
    ("compile", W_compile.run);
    ("marshal", W_marshal.run);
    ("serve", W_net.serve);
    ("gateway", W_net.gateway);
  ]

let workload = ref ""
let seed = ref 1
let seconds = ref 0.
let trace = ref 0
let out = ref ""
let runs = ref 1
let sets = ref 1
let smoke = ref false
let spec_path = ref "BENCHMARK.json"

let args =
  [
    ("--workload", Arg.Set_string workload, "W run one workload in this process");
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 15)");
    ("--trace", Arg.Set_int trace,
     "0|1 with --workload: untraced or traced run; without: also one traced run per workload");
    ("--out", Arg.Set_string out,
     "FILE write the rows here as JSON (every workload: default bench/e2e/out/results.json)");
    ("--runs", Arg.Set_int runs, "K runs per workload, seeds N..N+K-1 (default 1)");
    ("--sets", Arg.Set_int sets, "M repeat everything M times from seed N+1000m");
    ("--smoke", Arg.Set smoke, " tiny inputs and times, with the traced runs");
    ("--spec", Arg.Set_string spec_path, "FILE BENCHMARK.json (default ./BENCHMARK.json)");
  ]

let usage = "main.exe [--workload W] --seed N [--seconds S] [--trace 0|1] [--out FILE]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 2) fmt

let trace_path ~out w = Filename.concat (Filename.dirname out) (w ^ ".trace.json")

let write_rows ~out ~seed ~runs rows =
  if out <> "" then Cell.write_sets out [ { Cell.seed; runs; seconds = !seconds; rows } ]

(* The result line: every declared metric of the run's kind, by its
   median.  A metric the workload does not report (a layer it never
   enters) reads 0 here and "absent" in the table. *)
let result_line (spec : Cell.spec) ~traced (r : Meter.outcome) =
  let decls = if traced then spec.Cell.per_layer else spec.Cell.end_to_end in
  let value name =
    match List.find_opt (fun x -> x.Cell.metric = name) r.Meter.rows with
    | Some x when Float.is_finite (Cell.med x) -> Cell.med x
    | _ -> 0.
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.Meter.correct r.Meter.attempted r.Meter.failed
    (String.concat ","
       (List.map
          (fun d ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Cell.str d.Cell.d_name)
              (Cell.num (value d.Cell.d_name))
              (Cell.str d.Cell.d_unit))
          decls))

let run_one spec name =
  let f =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> fail "unknown workload %s" name
  in
  let traced = !trace = 1 in
  let o =
    {
      Meter.seed = !seed;
      seconds = !seconds;
      traced;
      smoke = !smoke;
      trace_file = (if traced && !out <> "" then Some (trace_path ~out:!out name) else None);
    }
  in
  let r = f o in
  write_rows ~out:!out ~seed:!seed ~runs:1 r.Meter.rows;
  Cell.print_table stdout r.Meter.rows;
  print_endline (result_line spec ~traced r);
  exit (if r.Meter.correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, in child processes                                   *)
(* ------------------------------------------------------------------ *)

(* Run one workload in a child process and read back its rows; the
   flag is false when the child failed. *)
let child ~name ~seed ~traced ~tmp =
  let argv =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
      "--seconds"; Printf.sprintf "%g" !seconds; "--trace"; (if traced then "1" else "0");
      "--out"; tmp; "--spec"; !spec_path ]
    @ if !smoke then [ "--smoke" ] else []
  in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
      Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let rows =
    match Cell.read_sets tmp with
    | [ s ] -> s.Cell.rows
    | _ | (exception _) -> []
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  (rows, status = Unix.WEXITED 0)

(* Pool K runs' rows: one value per run, that run's median. *)
let pool_runs = function
  | [ rows ] -> rows
  | first :: _ as all ->
      List.map
        (fun (r : Cell.row) ->
          let vals =
            List.filter_map
              (fun rows ->
                match List.find_opt (fun (x : Cell.row) -> x.metric = r.metric) rows with
                | Some x when not (Cell.is_absent x) -> Some (Cell.med x)
                | _ -> None)
              all
          in
          { r with values = vals })
        first
  | [] -> []

(* Outside the smoke pass every round's p99 must rest on at least 1,000
   latency samples: checked on each run's own rounds, before pooling. *)
let min_samples = 1000.

let enough_samples rows =
  List.for_all
    (fun (r : Cell.row) ->
      let ok =
        !smoke || r.metric <> "latency_samples" || List.for_all (fun v -> v >= min_samples) r.values
      in
      if not ok then
        Printf.eprintf "e2e: %s: a round has fewer than %.0f latency samples\n" r.workload
          min_samples;
      ok)
    rows

(* Each declared end-to-end metric must be reported on every workload;
   each per-layer metric on at least one workload's traced run. *)
let check_spec (spec : Cell.spec) ~traced rows =
  let ok = ref true in
  let good (d : Cell.decl) (r : Cell.row) =
    r.metric = d.d_name && r.unit_ = d.d_unit && (not (Cell.is_absent r))
    && List.for_all Float.is_finite r.values
  in
  List.iter
    (fun w ->
      List.iter
        (fun d ->
          if not (List.exists (fun r -> r.Cell.workload = w && good d r) rows) then begin
            ok := false;
            Printf.eprintf "missing end-to-end metric %s/%s (%s)\n" w d.Cell.d_name d.Cell.d_unit
          end)
        spec.end_to_end)
    spec.workloads;
  if traced then
    List.iter
      (fun d ->
        if not (List.exists (good d) rows) then begin
          ok := false;
          Printf.eprintf "missing per-layer metric %s (%s)\n" d.Cell.d_name d.Cell.d_unit
        end)
      spec.per_layer;
  !ok

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let run_all spec =
  let out = if !out = "" then "bench/e2e/out/results.json" else !out in
  mkdir_p (Filename.dirname out);
  let traced_all = !trace = 1 || !smoke in
  let failures = ref 0 and short = ref false in
  let sets =
    List.init !sets (fun m ->
        let base = !seed + (1000 * m) in
        let rows =
          List.concat_map
            (fun (name, _) ->
              let tmp = Printf.sprintf "%s.%s.part" out name in
              let untraced =
                List.init !runs (fun k ->
                    let rows, ok = child ~name ~seed:(base + k) ~traced:false ~tmp in
                    if not ok then incr failures;
                    if not (enough_samples rows) then short := true;
                    rows)
              in
              let traced =
                if traced_all then begin
                  let rows, ok = child ~name ~seed:base ~traced:true ~tmp in
                  if not ok then incr failures;
                  rows
                end
                else []
              in
              (* the traced run's own error and pool rows repeat the
                 untraced runs'; theirs, pooled over every run, stay *)
              let untraced = pool_runs untraced in
              untraced
              @ List.filter
                  (fun (r : Cell.row) ->
                    not (List.exists (fun (u : Cell.row) -> u.metric = r.metric) untraced))
                  traced)
            workloads
        in
        { Cell.seed = base; runs = !runs; seconds = !seconds; rows })
  in
  Cell.write_sets out sets;
  List.iter (fun s -> Cell.print_table stdout s.Cell.rows) sets;
  let complete = List.for_all (fun s -> check_spec spec ~traced:traced_all s.Cell.rows) sets in
  if !failures > 0 then Printf.eprintf "e2e: %d run(s) failed a correctness check\n" !failures;
  exit (if !failures = 0 && complete && not !short then 0 else 1)

let () =
  Arg.parse args (fun a -> fail "unexpected argument %s" a) usage;
  if !seconds <= 0. then seconds := if !smoke then 0.4 else 15.;
  let spec =
    try Cell.read_spec !spec_path
    with e -> fail "cannot read %s: %s" !spec_path (Printexc.to_string e)
  in
  if !workload <> "" then run_one spec !workload else run_all spec
