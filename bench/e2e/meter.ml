(* How the benchmark measures: the clock, latency histograms, layer
   spans, the machine-speed reference, slices and rounds, and the
   traced run. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Run options                                                          *)
(* ------------------------------------------------------------------ *)

type opts = {
  seed : int;
  seconds : float;  (** measured time of the whole run *)
  traced : bool;
  smoke : bool;  (** tiny inputs and one set-up repetition *)
  trace_file : string option;  (** Chrome trace of the traced run *)
}

let setup_reps o = if o.smoke then 1 else 7

(* Time given to each stand-alone layer probe of the traced run. *)
let probe_ns o = 1e9 *. Float.min 1.0 (Float.max 0.05 (o.seconds /. 20.))

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                    *)
(* ------------------------------------------------------------------ *)

(* Log-linear buckets 2^(1/64) apart (1.1% wide) from 1 ns to 2^40 ns;
   a percentile is interpolated linearly inside its bucket.  Fixed
   memory however many samples are recorded, so the benchmark's own
   bookkeeping does not grow the heap the heap metric reads. *)
module Lat = struct
  let per_octave = 64.
  let nbuckets = 64 * 40

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make nbuckets 0; n = 0 }

  let add t ns =
    let b =
      if ns < 1. then 0
      else min (nbuckets - 1) (int_of_float (Float.log2 ns *. per_octave))
    in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  let edge b = Float.pow 2. (float_of_int b /. per_octave)

  (* Moves every sample of [src] into [dst], scaled by [scale] to the
     nearest bucket, and empties [src]. *)
  let drain ~scale ~src dst =
    let shift = Float.to_int (Float.round (Float.log2 scale *. per_octave)) in
    Array.iteri
      (fun b c ->
        if c > 0 then begin
          let d = max 0 (min (nbuckets - 1) (b + shift)) in
          dst.counts.(d) <- dst.counts.(d) + c;
          src.counts.(b) <- 0
        end)
      src.counts;
    dst.n <- dst.n + src.n;
    src.n <- 0

  let quantile t q =
    if t.n = 0 then nan
    else begin
      let rank = q *. float_of_int t.n in
      let rec go b cum =
        let c = t.counts.(b) in
        if b = nbuckets - 1 || (c > 0 && float_of_int (cum + c) >= rank) then
          let frac =
            if c = 0 then 1. else (rank -. float_of_int cum) /. float_of_int c
          in
          edge b +. ((edge (b + 1) -. edge b) *. Float.max 0. frac)
        else go (b + 1) (cum + c)
      in
      go 0 0
    end
end

(* ------------------------------------------------------------------ *)
(* Layer spans                                                          *)
(* ------------------------------------------------------------------ *)

(* In the traced run every call the benchmark makes into a layer runs
   under [span]: the span's wall time accumulates under its name, and
   its self time is that minus the time of the spans nested in it.
   Spans also go to Obs_trace when it is recording, which happens for
   one sampled operation in 64 (see [sampled]), so the Chrome trace
   stays small.  Untraced, [span] is a direct call. *)
module Span = struct
  type acc = { mutable total : float; mutable self : float; mutable calls : int }

  let on = ref false
  let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
  let children : float ref list ref = ref []
  let top_ns = ref 0.

  let reset () =
    Hashtbl.reset accs;
    children := [];
    top_ns := 0.

  let acc name =
    match Hashtbl.find_opt accs name with
    | Some a -> a
    | None ->
        let a = { total = 0.; self = 0.; calls = 0 } in
        Hashtbl.add accs name a;
        a

  (* [keep] records the span in the Chrome trace even when the
     operation is not sampled: round-level spans, so that the sampled
     spans inside them nest under a parent. *)
  let span ?(keep = false) name f =
    if not !on then f ()
    else begin
      let a = acc name in
      let child = ref 0. in
      let saved = !children in
      children := child :: saved;
      let sp =
        if keep && not (Obs_trace.enabled ()) then begin
          Obs_trace.set_enabled true;
          let sp = Obs_trace.enter ~cat:"bench" name in
          Obs_trace.set_enabled false;
          sp
        end
        else Obs_trace.enter ~cat:"bench" name
      in
      let t0 = now_ns () in
      let finish () =
        Obs_trace.leave sp;
        let dt = now_ns () -. t0 in
        children := saved;
        (match saved with p :: _ -> p := !p +. dt | [] -> top_ns := !top_ns +. dt);
        a.total <- a.total +. dt;
        a.self <- a.self +. dt -. !child;
        a.calls <- a.calls + 1
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  let sample_every = 64

  (* Run [f] with Obs_trace recording when [counter] says this
     operation is sampled. *)
  let sampled counter f =
    incr counter;
    if !on && !counter mod sample_every = 0 && not (Obs_trace.enabled ())
    then begin
      Obs_trace.set_enabled true;
      Fun.protect ~finally:(fun () -> Obs_trace.set_enabled false) f
    end
    else f ()

  let self name = match Hashtbl.find_opt accs name with Some a -> a.self | None -> 0.
  let calls name = match Hashtbl.find_opt accs name with Some a -> a.calls | None -> 0

  (* Sum over every span whose name starts with [prefix]. *)
  let fold_prefix prefix get =
    Hashtbl.fold
      (fun name a s -> if String.starts_with ~prefix name then s +. get a else s)
      accs 0.
end

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                    *)
(* ------------------------------------------------------------------ *)

(* Counters are read by name from Obs.snapshot, so a metric whose
   counter a later change removes reads as absent instead of breaking
   the build. *)
let snap () =
  let h = Hashtbl.create 256 in
  List.iter
    (function
      | Obs.Scounter (n, v) -> Hashtbl.replace h n (float_of_int v)
      | Obs.Sgauge (n, v, hw) ->
          Hashtbl.replace h n v;
          Hashtbl.replace h (n ^ ".hw") hw
      | Obs.Svalue (n, v) -> Hashtbl.replace h n v
      | Obs.Shist (n, s) ->
          Hashtbl.replace h (n ^ ".sum") s.Obs.sum;
          Hashtbl.replace h (n ^ ".count") (float_of_int s.Obs.count))
    (Obs.snapshot ());
  h


(* ------------------------------------------------------------------ *)
(* Machine speed                                                        *)
(* ------------------------------------------------------------------ *)

(* The machines this runs on are shared, and other tenants slow the
   core down by up to half for seconds to minutes at a time -- often a
   whole run long, so no choice among a run's own samples can undo it.
   What does track it is fixed work of the same kind the workloads do:
   a sort, hash-table lookups, a bytecode-style dispatch loop, stores
   streaming over a minor-heap-sized buffer, parallel cache-missing
   walks and short copies (correlation about 0.9 with the serve rate,
   slice by slice; a single-chain ALU loop or a single pointer chase
   barely notice).  Normalizing by it took the seed-to-seed spread of
   compile and serve throughput from 33-44% to 3-5% on a busy
   host.  This
   reference work runs before every slice, warmed up and allocating
   nothing, so its speed depends on the machine only, never on the
   program under test, its heap or its cache footprint.  [speed] is the reference time on a quiet
   development machine over the time measured now: 1.0 there, 0.6 when
   the machine runs at 60%. *)
module Machine = struct
  let sort_src =
    let st = Random.State.make [| 3 |] in
    Array.init 1000 (fun _ -> Random.State.bits st)

  let sort_dst = Array.make 1000 0

  let table =
    let t = Hashtbl.create 4096 in
    for i = 0 to 4095 do Hashtbl.replace t (i * 7919) i done;
    t

  type ins = Add of int | Mul of int | Xor of int | Jump of int

  let program =
    Array.init 64 (fun i ->
        match i mod 4 with
        | 0 -> Add i
        | 1 -> Mul 3
        | 2 -> Xor (i * 7)
        | _ -> Jump (i land 31))

  (* Each piece runs once untimed first, so what the program under test
     left in the caches does not show in the timed run. *)
  let time f =
    f ();
    let t0 = now_ns () in
    f ();
    now_ns () -. t0

  let sort () =
    Array.blit sort_src 0 sort_dst 0 (Array.length sort_src);
    Array.sort (fun (a : int) b -> compare a b) sort_dst

  let lookups () =
    let hits = ref 0 in
    for i = 0 to 5000 do
      if Hashtbl.mem table ((i land 8191) * 7919) then incr hits
    done;
    ignore (Sys.opaque_identity !hits)

  let dispatch () =
    let acc = ref 1 and pc = ref 0 in
    for _ = 1 to 50_000 do
      (match program.(!pc) with
      | Add n -> acc := !acc + n
      | Mul n -> acc := (!acc * n) land 0xFFFFFF
      | Xor n -> acc := !acc lxor n
      | Jump t -> if !acc land 1 = 0 then pc := t);
      pc := (!pc + 1) land 63
    done;
    ignore (Sys.opaque_identity !acc)

  (* Geometric mean of the six pieces, in ns, on the reference machine
     (2 vCPUs, quiet): the bench's fixed yardstick. *)
  let reference_ns = 110_000.

  (* Buffers outside the OCaml heap, so the heap metric never sees
     them. *)
  open Bigarray

  (* One store per cache line over 2 MB, the way allocation sweeps a
     minor heap. *)
  let lines : (char, int8_unsigned_elt, c_layout) Array1.t =
    Array1.init char c_layout (2 * 1024 * 1024) (fun _ -> ' ')

  let stream () =
    for i = 0 to (Array1.dim lines / 64) - 1 do
      Array1.unsafe_set lines (i * 64) 'x'
    done

  (* Four independent walks through one random cycle over 1 MB, the way
     a collector or a tree walk misses in the cache. *)
  let cycle : (int, int_elt, c_layout) Array1.t =
    let n = 131072 in
    let st = Random.State.make [| 5 |] in
    let p = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st i in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    let a = Array1.create int c_layout n in
    Array.iteri (fun i x -> Array1.set a x p.((i + 1) mod n)) p;
    a

  let chase () =
    let a = ref 0 and b = ref 1000 and c = ref 2000 and d = ref 3000 in
    for _ = 1 to 5000 do
      a := Array1.unsafe_get cycle !a;
      b := Array1.unsafe_get cycle !b;
      c := Array1.unsafe_get cycle !c;
      d := Array1.unsafe_get cycle !d
    done;
    ignore (Sys.opaque_identity (!a + !b + !c + !d))

  (* Short copies into an output buffer, the way code is emitted. *)
  let words = Array.init 256 (fun i -> Bytes.of_string (Printf.sprintf "identifier_%d_xyz" i))
  let out = Bytes.create 65536

  let emit () =
    let pos = ref 0 in
    for i = 0 to 8000 do
      let w = words.(i land 255) in
      let l = Bytes.length w in
      if !pos + l > Bytes.length out then pos := 0;
      Bytes.blit w 0 out !pos l;
      pos := !pos + l
    done

  let speed () =
    let t =
      Float.pow
        (time sort *. time lookups *. time dispatch *. time stream *. time chase *. time emit)
        (1. /. 6.)
    in
    reference_ns /. t
end

(* ------------------------------------------------------------------ *)
(* Set-up, slices and rounds                                            *)
(* ------------------------------------------------------------------ *)

(* Set up [setup_reps] times from cold caches and keep the last
   state; the set-up time reported is the median repetition, on the
   reference machine's clock (see Machine). *)
let timed_setup o f =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps o do
    Plan_cache.reset_all ();
    let speed = Machine.speed () in
    let t0 = now_ns () in
    let v = f () in
    times := ((now_ns () -. t0) *. speed /. 1e9) :: !times;
    last := Some v
  done;
  (Option.get !last, List.rev !times)

(* A run is cut into slices of about a tenth of a second, each closed
   only where the workload's work is in a comparable state (after a
   whole pass over its inputs), and each timed on the reference clock
   by the machine speed measured as it opened.  Every slice counts,
   slow ones included: a change that makes the program stall now and
   then (a major collection, a cache refill) shows in the rate and the
   tail.  The slices are dealt, in time order, round-robin into
   [groups] rounds, and every metric is the median over those rounds.
   A round keeps only sums and a histogram, so the benchmark's memory
   does not grow with the run. *)
let groups = 5

type round = {
  mutable ops : int;
  mutable wall_ns : float;  (** as measured, oracle work excluded *)
  mutable ref_ns : float;  (** on the reference machine's clock *)
  lat : Lat.t;  (** each slice's samples on the reference clock *)
  mutable heap_words : int;  (** largest major heap as one of its slices closed *)
}

let ops_per_s r = if r.ref_ns <= 0. then nan else float_of_int r.ops /. (r.ref_ns /. 1e9)
let raw_ops_per_s r = if r.wall_ns <= 0. then nan else float_of_int r.ops /. (r.wall_ns /. 1e9)
let machine_speed r = r.ref_ns /. r.wall_ns
let latency_us r q = Lat.quantile r.lat q /. 1e3

module Slicer = struct
  type t = {
    slice_ns : float;
    lat : Lat.t;  (** the open slice's samples, as measured *)
    rounds : round array;
    mutable slices : int;  (** closed so far *)
    mutable start : float;
    mutable speed : float;
    mutable ops : int;
    mutable excluded : float;
    mutable open_ : bool;
    mutable ok : int;  (** whole run, slices or not *)
    mutable failed : int;
  }

  let create ?(slice_s = 0.1) () =
    {
      slice_ns = slice_s *. 1e9;
      lat = Lat.create ();
      rounds =
        Array.init groups (fun _ ->
            { ops = 0; wall_ns = 0.; ref_ns = 0.; lat = Lat.create (); heap_words = 0 });
      slices = 0;
      start = 0.;
      speed = 1.;
      ops = 0;
      excluded = 0.;
      open_ = false;
      ok = 0;
      failed = 0;
    }

  let start t =
    t.speed <- Machine.speed ();
    t.start <- now_ns ();
    t.ops <- 0;
    t.excluded <- 0.;
    t.open_ <- true

  (* One correct operation and its latency.  Work done while no slice
     is open (a closed loop draining) is counted but not timed. *)
  let ok t ns =
    t.ok <- t.ok + 1;
    if t.open_ then begin
      t.ops <- t.ops + 1;
      Lat.add t.lat ns
    end

  let fail t = t.failed <- t.failed + 1

  (* Wall time of oracle work inside a slice, taken out of it. *)
  let exclude t ns = t.excluded <- t.excluded +. ns

  (* The heap is sampled as each slice closes, so the peak is the
     program's under load, not that of the benchmark's set-up and
     reference checks (Gc's own top_heap_words keeps those). *)
  let close t =
    if t.open_ then begin
      let wall = now_ns () -. t.start -. t.excluded in
      let r = t.rounds.(t.slices mod groups) in
      r.heap_words <- max r.heap_words (Gc.quick_stat ()).Gc.heap_words;
      r.ops <- r.ops + t.ops;
      r.wall_ns <- r.wall_ns +. wall;
      r.ref_ns <- r.ref_ns +. (wall *. t.speed);
      Lat.drain ~scale:t.speed ~src:t.lat r.lat;
      t.slices <- t.slices + 1;
      t.open_ <- false
    end

  (* Close the slice and open the next once its time is up. *)
  let boundary t =
    if t.open_ && now_ns () -. t.start >= t.slice_ns then begin
      close t;
      start t
    end
end

(* The rounds that hold a slice (fewer than [groups] in a short run). *)
let rounds (sl : Slicer.t) = List.filter (fun r -> r.wall_ns > 0.) (Array.to_list sl.Slicer.rounds)

(* Operations per second over the whole run, on the reference clock. *)
let rate (sl : Slicer.t) =
  let ops, ref_ns =
    Array.fold_left (fun (o, t) r -> (o + r.ops, t +. r.ref_ns)) (0, 0.) sl.Slicer.rounds
  in
  float_of_int ops /. (ref_ns /. 1e9)

(* Run [drive] over a fresh slicer for the whole measured time.  The
   garbage set-up and the reference checks left is collected first, so
   neither the heap metric nor the first slices' times carry it. *)
let measure ?slice_s o drive =
  Gc.full_major ();
  let sl = Slicer.create ?slice_s () in
  drive sl ~deadline:(now_ns () +. (o.seconds *. 1e9));
  sl

(* End-to-end rows of one run. *)
let e2e_rows ~workload ~setup (sl : Slicer.t) =
  let rounds = rounds sl in
  let row = Cell.row ~workload in
  let pct q = List.map (fun r -> latency_us r q) rounds in
  [
    row "setup_s" "s" setup;
    row "ops_per_s" "1/s" (List.map ops_per_s rounds);
    row "ops_per_s_raw" "1/s" (List.map raw_ops_per_s rounds);
    row "machine_speed" "ratio" (List.map machine_speed rounds);
    row "latency_p50_us" "us" (pct 0.50);
    row "latency_p99_us" "us" (pct 0.99);
    row "latency_p999_us" "us" (pct 0.999);
    row "latency_samples" "count" (List.map (fun r -> float_of_int r.lat.Lat.n) rounds);
    row "slices" "count" [ float_of_int sl.Slicer.slices ];
    row "heap_peak_mb" "MB"
      (List.map (fun r -> float_of_int (r.heap_words * (Sys.word_size / 8)) /. 1048576.) rounds);
  ]

type outcome = {
  rows : Cell.row list;
  attempted : int;
  failed : int;
  correct : bool;
}

(* The rows and verdict every workload closes with: failed or
   mismatched operations (oracle cases included) over attempted ones,
   and the Mbuf pool checked out across the measured part of the run,
   which must come back to where it was. *)
let outcome ~workload ~pool0 ~(slicers : Slicer.t list) ~oracle_cases ~oracle_failed ~clean rows =
  let pool1 = Mbuf.pool_stats () in
  let wd = pool1.Mbuf.writers_outstanding - pool0.Mbuf.writers_outstanding
  and rd = pool1.Mbuf.readers_outstanding - pool0.Mbuf.readers_outstanding in
  let failed = List.fold_left (fun a (s : Slicer.t) -> a + s.failed) oracle_failed slicers in
  let attempted =
    List.fold_left (fun a (s : Slicer.t) -> a + s.ok + s.failed) oracle_cases slicers
  in
  let row = Cell.row ~workload in
  {
    rows =
      rows
      @ [
          row "error_rate" "ratio" [ float_of_int failed /. float_of_int (max 1 attempted) ];
          row "mbuf.writers_outstanding_delta" "count" [ float_of_int wd ];
          row "mbuf.readers_outstanding_delta" "count" [ float_of_int rd ];
        ];
    attempted;
    failed;
    correct = failed = 0 && wd = 0 && rd = 0 && clean;
  }

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

(* The traced run: untraced and traced phases alternated, five of
   each, so drift in the machine affects both sides of trace.overhead
   alike.  Spans, Obs stub timing and the monotonic Obs clock are on in
   the traced phases only, and counters are read as deltas over the
   traced phases only: every Obs instrument, plus the readings [extra]
   returns (server statistics that live outside Obs). *)
type traced = {
  untraced : Slicer.t;
  traced : Slicer.t;
  traced_wall : float;  (** all traced phases *)
  deltas : (string, float) Hashtbl.t;
  gc_minor_words : float;  (** over the untraced phases *)
  gc_major : int;
}

let traced_run ?slice_s ?(extra = fun () -> []) o drive =
  let phase_ns = o.seconds *. 1e9 /. 10. in
  Obs.set_clock now_ns;
  Obs.set_timing false;
  let u = Slicer.create ?slice_s () and t = Slicer.create ?slice_s () in
  let read () =
    let h = snap () in
    List.iter (fun (k, v) -> Hashtbl.replace h k v) (extra ());
    h
  in
  let deltas = Hashtbl.create 256 in
  let minor = ref 0. and major = ref 0 and wall = ref 0. in
  for _ = 1 to 5 do
    let g0 = Gc.quick_stat () in
    drive u ~deadline:(now_ns () +. phase_ns);
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    let r0 = read () in
    Span.on := true;
    Obs.set_timing true;
    let t0 = now_ns () in
    drive t ~deadline:(t0 +. phase_ns);
    wall := !wall +. (now_ns () -. t0);
    Obs.set_timing false;
    Span.on := false;
    Hashtbl.iter
      (fun k v1 ->
        match Hashtbl.find_opt r0 k with
        | Some v0 ->
            let d = Option.value ~default:0. (Hashtbl.find_opt deltas k) in
            Hashtbl.replace deltas k (d +. v1 -. v0)
        | None -> ())
      (read ())
  done;
  { untraced = u; traced = t; traced_wall = !wall; deltas; gc_minor_words = !minor; gc_major = !major }

(* A counter's increase over the traced phases; [None] when this build
   has no such counter. *)
let counter (t : traced) name = Hashtbl.find_opt t.deltas name

(* Hit rate over every plan and closure cache. *)
let cache_hit_rate (t : traced) =
  let sum suffix =
    Hashtbl.fold
      (fun k v acc ->
        if String.starts_with ~prefix:"cache." k && String.ends_with ~suffix k then acc +. v
        else acc)
      t.deltas 0.
  in
  let hits = sum ".hits" and misses = sum ".misses" in
  if hits < 0. || misses < 0. || hits +. misses = 0. then None
  else Some (hits /. (hits +. misses))

(* The per-layer rows every workload reports from its traced run:
   trace overhead and coverage, the benchmark's own work, and GC. *)
let traced_common_rows ~workload (t : traced) =
  let row = Cell.row ~workload in
  let u_ops = float_of_int t.untraced.Slicer.ok and t_ops = float_of_int t.traced.Slicer.ok in
  [
    row "trace.overhead" "ratio" [ (rate t.untraced /. rate t.traced) -. 1. ];
    row "trace.unattributed_share" "ratio" [ (t.traced_wall -. !Span.top_ns) /. t.traced_wall ];
    row "client.us_per_op" "us" [ Span.fold_prefix "client" (fun a -> a.Span.self) /. t_ops /. 1e3 ];
    row "gc.minor_words_per_op" "words" [ t.gc_minor_words /. u_ops ];
    row "gc.major_collections_per_kop" "count" [ float_of_int t.gc_major *. 1e3 /. u_ops ];
  ]

(* Tier promotion, the plan caches, and Mbuf copy accounting per KiB of
   payload ([kb]; absent when the workload has no payload), over the
   traced phases.  A workload that resets the caches itself supplies
   its own [hit_rate]. *)
let counter_rows ~workload ?kb ?(hit_rate = fun t -> cache_hit_rate t) (t : traced) =
  let row = Cell.row ~workload in
  let t_ops = float_of_int t.traced.Slicer.ok in
  let opt name unit_ f = function
    | Some v -> row name unit_ [ f v ]
    | None -> Cell.absent ~workload name unit_
  in
  let per_kb name key =
    match kb with
    | Some kb -> opt name "B/KB" (fun v -> v /. kb) (counter t key)
    | None -> Cell.absent ~workload name "B/KB"
  in
  [
    (match (counter t "stage.staged_calls", counter t "stage.interp_calls") with
    | Some s, Some i when s +. i > 0. -> row "stage.staged_share" "ratio" [ s /. (s +. i) ]
    | _ -> Cell.absent ~workload "stage.staged_share" "ratio");
    opt "plan_cache.hit_rate" "ratio" Fun.id (hit_rate t);
    per_kb "mbuf.bytes_copied_per_kb" "wire.bytes_copied";
    per_kb "mbuf.bytes_borrowed_per_kb" "wire.bytes_borrowed";
    opt "mbuf.flattens_per_op" "count" (fun v -> v /. t_ops) (counter t "wire.flattens");
  ]

let write_trace o =
  match o.trace_file with
  | None -> Obs_trace.clear ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Obs_trace.to_chrome_json ());
      close_out oc;
      Obs_trace.clear ()

(* ------------------------------------------------------------------ *)
(* Plan probe (stand-alone, cold)                                       *)
(* ------------------------------------------------------------------ *)

(* Cold plan compilation and the optimizer passes on every operation's
   roots, timed from outside: Plan_compile/Dplan_compile, then
   Pass.run_encode/run_decode on the result.  Repeats over the list
   until the probe's time is used. *)
type plan_input = {
  pi_enc : Encoding.t;
  pi_ms : Paper_fixtures.method_spec;
}

let plan_rows o ~workload (inputs : plan_input list) =
  let row = Cell.row ~workload in
  let ce = ref 0. and cd = ref 0. and pe = ref 0. and pd = ref 0. in
  let nodes = ref 0 and checks = ref 0 and rounds = ref 0 and n = ref 0 in
  let budget = now_ns () +. probe_ns o in
  let first = ref true in
  while !first || now_ns () < budget do
    List.iter
      (fun { pi_enc = enc; pi_ms = ms } ->
        let mint = ms.Paper_fixtures.ms_mint
        and named = ms.Paper_fixtures.ms_named in
        let t0 = now_ns () in
        let p = Plan_compile.compile ~enc ~mint ~named ms.Paper_fixtures.ms_roots in
        let t1 = now_ns () in
        let er = ref 1 in
        let p = Pass.run_encode ~on_trace:(fun tr -> er := max !er tr.Pass.tr_round) p in
        let t2 = now_ns () in
        let d =
          Dplan_compile.compile ~enc ~mint ~named
            (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots)
        in
        let t3 = now_ns () in
        let dr = ref 1 in
        let d = Pass.run_decode ~on_trace:(fun tr -> dr := max !dr tr.Pass.tr_round) d in
        let t4 = now_ns () in
        ce := !ce +. (t1 -. t0);
        pe := !pe +. (t2 -. t1);
        cd := !cd +. (t3 -. t2);
        pd := !pd +. (t4 -. t3);
        if !first then begin
          nodes := !nodes + Pass.encode_side.Pass.s_nodes p + Pass.decode_side.Pass.s_nodes d;
          checks := !checks + Pass.encode_side.Pass.s_checks p + Pass.decode_side.Pass.s_checks d;
          rounds := !rounds + !er + !dr
        end;
        incr n)
      inputs;
    first := false
  done;
  let per x = x /. float_of_int !n /. 1e3 in
  let k = float_of_int (List.length inputs) in
  [
    row "plan_compile.encode_us" "us" [ per !ce ];
    row "plan_compile.decode_us" "us" [ per !cd ];
    row "pass.encode_us" "us" [ per !pe ];
    row "pass.decode_us" "us" [ per !pd ];
    row "pass.nodes_after" "count" [ float_of_int !nodes /. k ];
    row "pass.checks_after" "count" [ float_of_int !checks /. k ];
    row "pass.rounds" "count" [ float_of_int !rounds /. (2. *. k) ];
  ]
