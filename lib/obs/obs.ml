(* The process-wide metrics registry and its injectable clock.

   Every layer of the system records into one flat namespace of named
   instruments — monotonic counters, gauges with high-water marks, and
   log-scale histograms — so one exporter can render the whole picture
   (flick stats, the JSONL dump) instead of each subsystem hand-rolling
   its own report.  Time always flows through [now_ns]: tests swap in a
   stepping fake clock and every duration in every export becomes
   deterministic, which is what keeps the trace goldens stable across
   machines. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                                *)
(* ------------------------------------------------------------------ *)

type clock = unit -> float

let real_clock () = Unix.gettimeofday () *. 1e9

(* Steps by a fixed amount per reading, so the Nth clock call of a
   deterministic computation always returns the same value. *)
let fake_clock ?(start = 0.) ?(step = 1000.) () =
  let t = ref (start -. step) in
  fun () ->
    t := !t +. step;
    !t

let current_clock = ref real_clock
let set_clock c = current_clock := c
let clock () = !current_clock
let now_ns () = !current_clock ()

let with_clock c f =
  let old = !current_clock in
  current_clock := c;
  Fun.protect ~finally:(fun () -> current_clock := old) f

(* ------------------------------------------------------------------ *)
(* Hot-path gate                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-call stub timing costs two clock reads per encode/decode; the
   benches must not pay that, so the instrumented closures check this
   flag on every call (a load and a branch) and only then observe. *)
let timing = ref false
let timing_enabled () = !timing
let set_timing b = timing := b

(* ------------------------------------------------------------------ *)
(* Instruments                                                          *)
(* ------------------------------------------------------------------ *)

exception Duplicate_metric of string

let () =
  Printexc.register_printer (function
    | Duplicate_metric name ->
        Some (Printf.sprintf "Obs.Duplicate_metric(%S)" name)
    | _ -> None)

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float; mutable g_high : float }

(* Bucket 0 holds values <= 1; bucket i holds (2^(i-1), 2^i]; the last
   bucket absorbs everything larger (the overflow bucket).  Log-scale
   is the right shape for both nanoseconds and byte sizes: relative
   error stays bounded across six orders of magnitude. *)
let n_buckets = 64

type hist = {
  h_buckets : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  (* One representative trace id per bucket (0 = none), allocated on the
     first exemplared observation so plain histograms pay nothing. *)
  mutable h_exemplars : int array option;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of hist
  | Probe of (unit -> (string * float) list)

(* Registration order is report order; the list is tiny and only walked
   by exporters, so an assoc list beats a hashtable for determinism. *)
let metrics : (string * metric) list ref = ref []

let register name m =
  if List.mem_assoc name !metrics then raise (Duplicate_metric name);
  metrics := !metrics @ [ (name, m) ]

let counter name =
  let c = { c_value = 0 } in
  register name (Counter c);
  c

let incr c n = c.c_value <- c.c_value + n
let counter_value c = c.c_value

let gauge name =
  let g = { g_value = 0.; g_high = 0. } in
  register name (Gauge g);
  g

let set_gauge g v =
  g.g_value <- v;
  if v > g.g_high then g.g_high <- v

let gauge_value g = g.g_value
let gauge_high_water g = g.g_high

let hist name =
  let h =
    {
      h_buckets = Array.make n_buckets 0;
      h_count = 0;
      h_sum = 0.;
      h_min = 0.;
      h_max = 0.;
      h_exemplars = None;
    }
  in
  register name (Hist h);
  h

let bucket_of v =
  if not (v > 1.) then 0
  else begin
    let b = ref 0 and lim = ref 1. in
    while !b < n_buckets - 1 && v > !lim do
      Stdlib.incr b;
      lim := !lim *. 2.
    done;
    !b
  end

let observe h v =
  let v = if Float.is_nan v then 0. else v in
  let b = bucket_of v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1;
  h.h_sum <- h.h_sum +. v;
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1

(* An exemplared observation additionally remembers which request landed
   in the bucket: the latest trace id wins, so a p99 bucket always names
   a concrete request timeline from the current run. *)
let observe_ex h v ~exemplar =
  observe h v;
  if exemplar <> 0 then begin
    let ex =
      match h.h_exemplars with
      | Some a -> a
      | None ->
          let a = Array.make n_buckets 0 in
          h.h_exemplars <- Some a;
          a
    in
    ex.(bucket_of (if Float.is_nan v then 0. else v)) <- exemplar
  end

let bucket_counts h = Array.copy h.h_buckets

let exemplars h =
  match h.h_exemplars with
  | None -> []
  | Some ex ->
      let acc = ref [] in
      for i = n_buckets - 1 downto 0 do
        if ex.(i) <> 0 then acc := (i, ex.(i)) :: !acc
      done;
      !acc

(* Sub-bucket estimate: walk the cumulative distribution to the bucket
   holding the requested rank, then interpolate linearly inside it —
   samples within a bucket are assumed uniform over (lo, hi], so a rank
   landing k-th of n in a bucket reads as lo + k/n * (hi - lo) rather
   than the bucket's upper bound.  On tight distributions (every sample
   in one or two power-of-two buckets — exactly the shape of per-engine
   stub latencies) this recovers sub-bucket resolution without touching
   recording cost.  The result is clamped into the observed [min, max]
   so degenerate shapes come out exact: empty -> 0, a single sample ->
   that sample; the overflow bucket has no meaningful width, so it
   still reports the true maximum. *)
let percentile h p =
  if h.h_count = 0 then 0.
  else begin
    let rank = Float.max 1. (Float.ceil (p /. 100. *. float_of_int h.h_count)) in
    let rec go i acc =
      if i >= n_buckets then h.h_max
      else
        let n = h.h_buckets.(i) in
        let acc' = acc + n in
        if float_of_int acc' >= rank then
          if i = n_buckets - 1 then h.h_max
          else begin
            let lo = if i = 0 then 0. else 2. ** float_of_int (i - 1) in
            let hi = 2. ** float_of_int i in
            let pos = (rank -. float_of_int acc) /. float_of_int n in
            Float.min h.h_max
              (Float.max h.h_min (lo +. (pos *. (hi -. lo))))
          end
        else go (i + 1) acc'
    in
    go 0 0
  end

(* The exemplar backing a percentile: the trace id retained in the
   bucket the percentile estimate falls into (or the nearest populated
   bucket below it, since clamping can pull the estimate under its
   rank's bucket boundary). *)
let exemplar_at h p =
  match h.h_exemplars with
  | None -> None
  | Some ex ->
      if h.h_count = 0 then None
      else begin
        let b = ref (bucket_of (percentile h p)) in
        while !b > 0 && ex.(!b) = 0 do
          decr b
        done;
        if ex.(!b) = 0 then None else Some ex.(!b)
      end

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p99_exemplar : int option;
      (* trace id retained in the p99 bucket, when one was recorded *)
}

let hist_summary h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = h.h_min;
    max = h.h_max;
    p50 = percentile h 50.;
    p90 = percentile h 90.;
    p99 = percentile h 99.;
    p99_exemplar = exemplar_at h 99.;
  }

let probe name f = register name (Probe f)

(* ------------------------------------------------------------------ *)
(* Snapshots and exporters                                              *)
(* ------------------------------------------------------------------ *)

type sample =
  | Scounter of string * int
  | Sgauge of string * float * float  (* value, high-water *)
  | Svalue of string * float  (* one probe reading *)
  | Shist of string * hist_summary

let snapshot () =
  List.concat_map
    (fun (name, m) ->
      match m with
      | Counter c -> [ Scounter (name, c.c_value) ]
      | Gauge g -> [ Sgauge (name, g.g_value, g.g_high) ]
      | Hist h -> [ Shist (name, hist_summary h) ]
      | Probe f ->
          List.map (fun (k, v) -> Svalue (name ^ "." ^ k, v)) (f ()))
    !metrics

let reset_hist h =
  Array.fill h.h_buckets 0 n_buckets 0;
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_min <- 0.;
  h.h_max <- 0.;
  h.h_exemplars <- None

let reset_all () =
  List.iter
    (fun (_, m) ->
      match m with
      | Counter c -> c.c_value <- 0
      | Gauge g ->
          g.g_value <- 0.;
          g.g_high <- 0.
      | Hist h -> reset_hist h
      | Probe _ -> ())
    !metrics

(* Values are mostly nanoseconds or byte counts: print integers as
   integers and keep one decimal otherwise. *)
let pp_value v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.1f" v

(* Extra report sections appended to the table by other layers (the
   request recorder's phase breakdown registers one).  A section
   renderer returning "" contributes nothing, so the table only grows
   when a section has data. *)
let sections : (unit -> string) list ref = ref []
let add_section f = sections := !sections @ [ f ]

let render_table () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-36s %s\n" "metric" "value");
  List.iter
    (fun s ->
      match s with
      | Scounter (name, v) ->
          Buffer.add_string b (Printf.sprintf "%-36s %d\n" name v)
      | Sgauge (name, v, hw) ->
          Buffer.add_string b
            (Printf.sprintf "%-36s %s (high-water %s)\n" name (pp_value v)
               (pp_value hw))
      | Svalue (name, v) ->
          Buffer.add_string b (Printf.sprintf "%-36s %s\n" name (pp_value v))
      | Shist (name, h) ->
          Buffer.add_string b
            (Printf.sprintf
               "%-36s count %d  sum %s  min %s  p50 %s  p90 %s  p99 %s  max \
                %s\n"
               name h.count (pp_value h.sum) (pp_value h.min) (pp_value h.p50)
               (pp_value h.p90) (pp_value h.p99) (pp_value h.max)))
    (snapshot ());
  List.iter (fun f -> Buffer.add_string b (f ())) !sections;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Not every float survives %g as JSON (nan, inf); everything we export
   is finite by construction, but guard anyway. *)
let json_num v = if Float.is_finite v then Printf.sprintf "%.6g" v else "0"

let to_jsonl () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  List.iter
    (fun s ->
      match s with
      | Scounter (name, v) ->
          line "{\"metric\":\"%s\",\"type\":\"counter\",\"value\":%d}"
            (json_escape name) v
      | Sgauge (name, v, hw) ->
          line
            "{\"metric\":\"%s\",\"type\":\"gauge\",\"value\":%s,\"high_water\":%s}"
            (json_escape name) (json_num v) (json_num hw)
      | Svalue (name, v) ->
          line "{\"metric\":\"%s\",\"type\":\"value\",\"value\":%s}"
            (json_escape name) (json_num v)
      | Shist (name, h) ->
          (* the exemplar member only appears when one was recorded, so
             exemplar-free exports stay byte-identical *)
          let ex =
            match h.p99_exemplar with
            | Some tr -> Printf.sprintf ",\"p99_exemplar\":%d" tr
            | None -> ""
          in
          line
            "{\"metric\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s%s}"
            (json_escape name) h.count (json_num h.sum) (json_num h.min)
            (json_num h.max) (json_num h.p50) (json_num h.p90)
            (json_num h.p99) ex)
    (snapshot ());
  Buffer.contents b
