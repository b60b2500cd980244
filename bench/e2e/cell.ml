(* The benchmark's one output schema: a row is one workload x metric
   cell holding every per-round (or per-run) value, from which the
   median and quartiles are derived.  The text table, the JSON rows
   file and the compare tool all go through this module. *)

type row = {
  workload : string;
  metric : string;
  unit_ : string;
  values : float list;  (** per round, or per run when runs are pooled *)
}

let row ~workload metric unit_ values = { workload; metric; unit_; values }

(* A metric whose source is missing from this build (a counter a later
   change deleted, or a layer this workload never enters) has no
   values; it prints as "absent" instead of failing the run. *)
let absent ~workload metric unit_ = { workload; metric; unit_; values = [] }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   statistics.quantiles(xs, n=4), so spreads read here match those
   computed from the same values with that function. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let n r = List.length r.values
let med r = median r.values
let q1 r = fst (quartiles r.values)
let q3 r = snd (quartiles r.values)

(* Interquartile range as a share of the median: the spread the
   bounds in BENCHMARK.json are compared against. *)
let spread r =
  let m = med r in
  if n r = 0 || m = 0. then nan else (q3 r -. q1 r) /. Float.abs m

let is_absent r = r.values = []

(* JSON numbers: full precision; non-finite values have no JSON
   spelling and become null. *)
let num x =
  if Float.is_finite x then
    if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
    else Printf.sprintf "%.17g" x
  else "null"

let str s = "\"" ^ Obs.json_escape s ^ "\""

let row_json r =
  let qa, qb = quartiles r.values in
  Printf.sprintf
    "{\"workload\":%s,\"metric\":%s,\"unit\":%s,\"n\":%d,\"median\":%s,\"q1\":%s,\"q3\":%s,\"rounds\":[%s]}"
    (str r.workload) (str r.metric) (str r.unit_) (n r)
    (num (med r)) (num qa) (num qb)
    (String.concat "," (List.map num r.values))

let fmt x =
  if Float.is_nan x then "-"
  else if Float.abs x >= 1e6 || (Float.abs x < 1e-3 && x <> 0.) then
    Printf.sprintf "%.4g" x
  else Printf.sprintf "%.4f" x

(* [workload metric unit median q1 q3 n], one line per row. *)
let print_table oc rows =
  Printf.fprintf oc "%-9s %-42s %-6s %14s %14s %14s %3s\n" "workload" "metric"
    "unit" "median" "q1" "q3" "n";
  List.iter
    (fun r ->
      if is_absent r then
        Printf.fprintf oc "%-9s %-42s %-6s %14s %14s %14s %3d\n" r.workload
          r.metric r.unit_ "absent" "-" "-" 0
      else
        Printf.fprintf oc "%-9s %-42s %-6s %14s %14s %14s %3d\n" r.workload
          r.metric r.unit_ (fmt (med r)) (fmt (q1 r)) (fmt (q3 r)) (n r))
    rows;
  flush oc

(* A results file: one or more sets of rows, each set one pass of
   every workload from its own seed base. *)
type set = { seed : int; runs : int; seconds : float; rows : row list }

let set_json s =
  Printf.sprintf "{\"seed\":%d,\"runs\":%d,\"seconds\":%s,\"rows\":[\n%s\n]}"
    s.seed s.runs (num s.seconds)
    (String.concat ",\n" (List.map row_json s.rows))

let write_sets path sets =
  let oc = open_out path in
  Printf.fprintf oc "{\"sets\":[\n%s\n]}\n"
    (String.concat ",\n" (List.map set_json sets));
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_json path =
  match Obs_json.parse (read_file path) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field name conv j =
  match Option.bind (Obs_json.member name j) conv with
  | Some v -> v
  | None -> failwith ("missing or malformed field " ^ name)

let row_of_json j =
  {
    workload = field "workload" Obs_json.to_string j;
    metric = field "metric" Obs_json.to_string j;
    unit_ = field "unit" Obs_json.to_string j;
    values =
      List.filter_map Obs_json.to_float (field "rounds" Obs_json.to_list j);
  }

let read_sets path =
  let j = parse_json path in
  List.map
    (fun s ->
      {
        seed = int_of_float (field "seed" Obs_json.to_float s);
        runs = int_of_float (field "runs" Obs_json.to_float s);
        seconds = field "seconds" Obs_json.to_float s;
        rows = List.map row_of_json (field "rows" Obs_json.to_list s);
      })
    (field "sets" Obs_json.to_list j)

(* The metric declarations of BENCHMARK.json. *)
type decl = { d_name : string; d_unit : string; d_better : string; d_bound : float option }

type spec = {
  workloads : string list;
  end_to_end : decl list;
  per_layer : decl list;
}

let read_spec path =
  let j = parse_json path in
  let decls key =
    List.map
      (fun d ->
        {
          d_name = field "name" Obs_json.to_string d;
          d_unit = field "unit" Obs_json.to_string d;
          d_better = field "better" Obs_json.to_string d;
          d_bound = Option.bind (Obs_json.member "bound" d) Obs_json.to_float;
        })
      (field key Obs_json.to_list j)
  in
  {
    workloads =
      List.map
        (fun w -> field "name" Obs_json.to_string w)
        (field "workloads" Obs_json.to_list j);
    end_to_end = decls "end_to_end";
    per_layer = decls "per_layer";
  }
