(* The observability layer: metrics registry, histogram percentiles,
   span tracer, and both exporters — with every exported timing coming
   from the injectable fake clock, and the exporters' JSON re-parsed by
   the repo's own reader (Obs_json) rather than eyeballed. *)

let test name f = Alcotest.test_case name `Quick f

let fl = Alcotest.float 1e-9

(* Registration is global and first-come-owns-the-name, so every test
   registers under a unique "test.obs." name. *)

(* -- clock ----------------------------------------------------------- *)

let clock_tests =
  [
    test "fake clock steps deterministically" (fun () ->
        Obs.with_clock
          (Obs.fake_clock ~start:100. ~step:10. ())
          (fun () ->
            Alcotest.check fl "first reading" 100. (Obs.now_ns ());
            Alcotest.check fl "second reading" 110. (Obs.now_ns ());
            Alcotest.check fl "third reading" 120. (Obs.now_ns ())));
    test "with_clock restores the previous clock on exception" (fun () ->
        let before = Obs.clock () in
        (try
           Obs.with_clock (Obs.fake_clock ()) (fun () -> failwith "boom")
         with Failure _ -> ());
        Alcotest.(check bool) "restored" true (Obs.clock () == before));
  ]

(* -- instruments ----------------------------------------------------- *)

let instrument_tests =
  [
    test "registering a name twice raises Duplicate_metric" (fun () ->
        ignore (Obs.counter "test.obs.dup");
        Alcotest.check_raises "counter" (Obs.Duplicate_metric "test.obs.dup")
          (fun () -> ignore (Obs.counter "test.obs.dup"));
        (* the namespace is shared across instrument kinds *)
        Alcotest.check_raises "hist" (Obs.Duplicate_metric "test.obs.dup")
          (fun () -> ignore (Obs.hist "test.obs.dup"));
        Alcotest.check_raises "probe" (Obs.Duplicate_metric "test.obs.dup")
          (fun () -> Obs.probe "test.obs.dup" (fun () -> [])));
    test "counter accumulates; gauge tracks its high-water mark" (fun () ->
        let c = Obs.counter "test.obs.ctr" in
        Obs.incr c 3;
        Obs.incr c 4;
        Alcotest.(check int) "counter" 7 (Obs.counter_value c);
        let g = Obs.gauge "test.obs.gauge" in
        Obs.set_gauge g 5.;
        Obs.set_gauge g 2.;
        Alcotest.check fl "value is the last set" 2. (Obs.gauge_value g);
        Alcotest.check fl "high water survives" 5. (Obs.gauge_high_water g));
  ]

(* -- histogram percentile edges -------------------------------------- *)

let hist_tests =
  [
    test "empty histogram reports zeros" (fun () ->
        let h = Obs.hist "test.obs.h.empty" in
        Alcotest.check fl "p50" 0. (Obs.percentile h 0.5);
        let s = Obs.hist_summary h in
        Alcotest.(check int) "count" 0 s.Obs.count;
        Alcotest.check fl "sum" 0. s.Obs.sum);
    test "single sample reports itself at every percentile" (fun () ->
        let h = Obs.hist "test.obs.h.single" in
        Obs.observe h 5000.;
        List.iter
          (fun q ->
            Alcotest.check fl
              (Printf.sprintf "p%.0f" (q *. 100.))
              5000. (Obs.percentile h q))
          [ 0.5; 0.9; 0.99 ]);
    test "overflow bucket reports the true maximum" (fun () ->
        let h = Obs.hist "test.obs.h.overflow" in
        (* 1e30 is far beyond bucket 62 (2^62 ~ 4.6e18): lands in the
           overflow bucket, whose percentile must be the observed max,
           not a bucket boundary *)
        Obs.observe h 1e30;
        Obs.observe h 2e30;
        Alcotest.check fl "p99 = max" 2e30 (Obs.percentile h 0.99);
        let s = Obs.hist_summary h in
        Alcotest.check fl "max" 2e30 s.Obs.max;
        Alcotest.check fl "min" 1e30 s.Obs.min);
    test "percentiles are clamped into [min, max]" (fun () ->
        let h = Obs.hist "test.obs.h.clamp" in
        List.iter (Obs.observe h) [ 3.; 5.; 6.; 100.; 300. ];
        List.iter
          (fun q ->
            let v = Obs.percentile h q in
            Alcotest.(check bool)
              (Printf.sprintf "p%.0f=%g within [3, 300]" (q *. 100.) v)
              true
              (v >= 3. && v <= 300.))
          [ 0.01; 0.5; 0.9; 0.99 ];
        Alcotest.(check bool)
          "p50 <= p99" true
          (Obs.percentile h 0.5 <= Obs.percentile h 0.99));
    test "sub-bucket interpolation pins exact quantiles across buckets"
      (fun () ->
        (* 4 samples in (8, 16] and 6 in (16, 32]; ranks interpolate
           linearly inside each bucket: p50 is rank 5, the 1st of 6 in
           (16, 32] -> 16 + 1/6 * 16; p90 is rank 9, the 5th of 6 ->
           16 + 5/6 * 16; p99 is rank 10, the last -> the bucket's
           upper bound, which is also the observed max *)
        let h = Obs.hist "test.obs.h.interp" in
        List.iter (Obs.observe h)
          [ 9.; 10.; 12.; 16.; 17.; 20.; 24.; 28.; 30.; 32. ];
        Alcotest.check fl "p50" (16. +. (16. /. 6.)) (Obs.percentile h 50.);
        Alcotest.check fl "p90" (16. +. (5. /. 6. *. 16.))
          (Obs.percentile h 90.);
        Alcotest.check fl "p99" 32. (Obs.percentile h 99.);
        let s = Obs.hist_summary h in
        Alcotest.check fl "summary p50" (16. +. (16. /. 6.)) s.Obs.p50;
        Alcotest.check fl "summary p90" (16. +. (5. /. 6. *. 16.)) s.Obs.p90);
    test "one-bucket distribution recovers sub-bucket resolution"
      (fun () ->
        (* all 10 samples land in (1024, 2048] — the shape of a tight
           latency distribution.  Without interpolation every quantile
           would report the bucket bound 2048; with it, p50 reads the
           bucket midpoint and p99 clamps to the observed max *)
        let h = Obs.hist "test.obs.h.tight" in
        List.iter
          (fun i -> Obs.observe h (1100. +. (100. *. float_of_int i)))
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ];
        Alcotest.check fl "p50 = bucket midpoint" 1536.
          (Obs.percentile h 50.);
        Alcotest.check fl "p90" (1024. +. (0.9 *. 1024.))
          (Obs.percentile h 90.);
        Alcotest.check fl "p99 clamps to the observed max" 2000.
          (Obs.percentile h 99.));
  ]

(* -- span tracer ------------------------------------------------------ *)

(* Tracing is process-global: each test enables it, runs under the fake
   clock, and restores the disabled default. *)
let traced f =
  Obs_trace.clear ();
  Obs_trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs_trace.set_enabled false;
      Obs_trace.clear ())
    (fun () -> Obs.with_clock (Obs.fake_clock ()) f)

let span_tests =
  [
    test "spans nest and record depth and fake-clock durations" (fun () ->
        traced (fun () ->
            Obs_trace.with_span "outer" (fun () ->
                Alcotest.(check int) "depth inside outer" 1 (Obs_trace.depth ());
                Obs_trace.with_span ~cat:"inner-cat" "inner" (fun () ->
                    Alcotest.(check int) "depth inside inner" 2
                      (Obs_trace.depth ()));
                Alcotest.(check int) "depth after inner" 1 (Obs_trace.depth ()));
            Alcotest.(check int) "depth at top" 0 (Obs_trace.depth ());
            match Obs_trace.events () with
            | [ inner; outer ] ->
                (* completion order: inner closes first *)
                Alcotest.(check string) "inner name" "inner"
                  inner.Obs_trace.ev_name;
                Alcotest.(check string) "inner cat" "inner-cat"
                  inner.Obs_trace.ev_cat;
                Alcotest.(check int) "inner depth" 1 inner.Obs_trace.ev_depth;
                Alcotest.(check string) "outer name" "outer"
                  outer.Obs_trace.ev_name;
                Alcotest.(check int) "outer depth" 0 outer.Obs_trace.ev_depth;
                (* fake clock: one reading per enter/leave, step 1000 —
                   inner spans one step, outer three *)
                Alcotest.check fl "inner dur" 1000. inner.Obs_trace.ev_dur_ns;
                Alcotest.check fl "outer dur" 3000. outer.Obs_trace.ev_dur_ns;
                Alcotest.(check bool)
                  "outer starts before inner" true
                  (outer.Obs_trace.ev_ts_ns < inner.Obs_trace.ev_ts_ns)
            | evs ->
                Alcotest.failf "expected 2 events, got %d" (List.length evs)));
    test "leaving a non-innermost span raises Unbalanced_span" (fun () ->
        traced (fun () ->
            let a = Obs_trace.enter "a" in
            let b = Obs_trace.enter "b" in
            Alcotest.check_raises "unbalanced" (Obs_trace.Unbalanced_span "a")
              (fun () -> Obs_trace.leave a);
            Obs_trace.leave b;
            Obs_trace.leave a));
    test "with_span pops without recording when the body raises" (fun () ->
        traced (fun () ->
            (try Obs_trace.with_span "doomed" (fun () -> failwith "boom")
             with Failure _ -> ());
            Alcotest.(check int) "no event recorded" 0
              (List.length (Obs_trace.events ()));
            Alcotest.(check int) "scope rebalanced" 0 (Obs_trace.depth ())));
    test "disabled tracer records nothing" (fun () ->
        Obs_trace.clear ();
        Obs_trace.with_span "invisible" (fun () -> ());
        Obs_trace.emit ~name:"also-invisible" ~ts_ns:0. ~dur_ns:1. ();
        Alcotest.(check int) "no events" 0 (List.length (Obs_trace.events ())));
  ]

(* -- exporters, re-parsed with Obs_json ------------------------------- *)

let member_exn what name j =
  match Obs_json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %S" what name

let exporter_tests =
  [
    test "Chrome trace JSON parses back with the span structure" (fun () ->
        traced (fun () ->
            Obs_trace.with_span ~cat:"frontend"
              ~args:[ ("file", "a\"b.idl") ]
              "parse"
              (fun () -> Obs_trace.with_span ~cat:"opt" "pass:x" (fun () -> ()));
            let s = Obs_trace.to_chrome_json () in
            match Obs_json.parse s with
            | Error msg -> Alcotest.failf "invalid trace JSON: %s" msg
            | Ok j -> (
                match
                  Obs_json.to_list (member_exn "trace" "traceEvents" j)
                with
                | Some [ inner; outer ] ->
                    let str name ev =
                      match Obs_json.to_string (member_exn "event" name ev) with
                      | Some s -> s
                      | None -> Alcotest.failf "%s is not a string" name
                    in
                    let num name ev =
                      match Obs_json.to_float (member_exn "event" name ev) with
                      | Some f -> f
                      | None -> Alcotest.failf "%s is not a number" name
                    in
                    Alcotest.(check string) "ph" "X" (str "ph" inner);
                    Alcotest.(check string) "name" "pass:x" (str "name" inner);
                    Alcotest.(check string) "cat" "opt" (str "cat" inner);
                    Alcotest.(check string) "outer name" "parse"
                      (str "name" outer);
                    (* fake clock, exported in microseconds: inner spans
                       one 1000ns step = 1us *)
                    Alcotest.check fl "inner dur us" 1. (num "dur" inner);
                    Alcotest.check fl "outer dur us" 3. (num "dur" outer);
                    Alcotest.check fl "pid" 1. (num "pid" outer);
                    (* args round-trip, including the escaped quote *)
                    let args = member_exn "event" "args" outer in
                    Alcotest.(check (option string))
                      "args.file" (Some "a\"b.idl")
                      (Option.bind (Obs_json.member "file" args)
                         Obs_json.to_string)
                | Some evs ->
                    Alcotest.failf "expected 2 events, got %d"
                      (List.length evs)
                | None -> Alcotest.fail "traceEvents is not an array")));
    test "metrics JSONL parses back line by line" (fun () ->
        let c = Obs.counter "test.obs.jsonl.ctr" in
        Obs.incr c 42;
        let h = Obs.hist "test.obs.jsonl.h" in
        Obs.observe h 7.;
        let lines =
          List.filter
            (fun l -> l <> "")
            (String.split_on_char '\n' (Obs.to_jsonl ()))
        in
        Alcotest.(check bool) "has lines" true (List.length lines > 0);
        let parsed =
          List.map
            (fun l ->
              match Obs_json.parse l with
              | Ok j -> j
              | Error msg -> Alcotest.failf "bad JSONL line %S: %s" l msg)
            lines
        in
        let find name =
          List.find_opt
            (fun j ->
              Obs_json.member "metric" j
              |> Option.fold ~none:false ~some:(fun m ->
                     Obs_json.to_string m = Some name))
            parsed
        in
        (match find "test.obs.jsonl.ctr" with
        | Some j ->
            Alcotest.(check (option (float 1e-9)))
              "counter value" (Some 42.)
              (Option.bind (Obs_json.member "value" j) Obs_json.to_float)
        | None -> Alcotest.fail "counter line missing");
        match find "test.obs.jsonl.h" with
        | Some j ->
            Alcotest.(check (option (float 1e-9)))
              "hist count" (Some 1.)
              (Option.bind (Obs_json.member "count" j) Obs_json.to_float)
        | None -> Alcotest.fail "histogram line missing");
    test "render_table lists instruments in registration order" (fun () ->
        let _ = Obs.counter "test.obs.table.a" in
        let _ = Obs.counter "test.obs.table.b" in
        let t = Obs.render_table () in
        let idx needle =
          let n = String.length t and m = String.length needle in
          let rec go i = if i + m > n then -1
            else if String.sub t i m = needle then i else go (i + 1)
          in
          go 0
        in
        let a = idx "test.obs.table.a" and b = idx "test.obs.table.b" in
        Alcotest.(check bool) "both present, a before b" true
          (a >= 0 && b >= 0 && a < b));
  ]

(* -- the instrumented compile pipeline -------------------------------- *)

let pipeline_tests =
  [
    test "compiling traces every front-end stage and optimizer pass"
      (fun () ->
        traced (fun () ->
            ignore
              (Driver.compile Driver.Idl_corba Driver.Pres_corba
                 Driver.Back_oncrpc ~file:"bench.idl"
                 ~source:Paper_fixtures.bench_idl ~interface:None);
            let names =
              List.map
                (fun e -> e.Obs_trace.ev_name)
                (Obs_trace.events ())
            in
            List.iter
              (fun stage ->
                Alcotest.(check bool)
                  (stage ^ " span present") true (List.mem stage names))
              [ "parse"; "presgen"; "backend"; "plan-compile"; "emit-c" ];
            List.iter
              (fun pass ->
                Alcotest.(check bool)
                  ("pass:" ^ pass ^ " span present") true
                  (List.mem ("pass:" ^ pass) names))
              Pass.encode_pass_names;
            (* stage spans nest under the compile, pass spans under
               plan-compile: depths prove the scopes really nested *)
            List.iter
              (fun e ->
                if e.Obs_trace.ev_name = "plan-compile" then
                  Alcotest.(check bool) "plan-compile nested under backend"
                    true
                    (e.Obs_trace.ev_depth >= 1))
              (Obs_trace.events ());
            (* one printing span per file, directly inside backend and
               holding no plan compilation *)
            let evs = Obs_trace.events () in
            let named n = List.filter (fun e -> e.Obs_trace.ev_name = n) evs in
            let within outer e =
              e.Obs_trace.ev_ts_ns >= outer.Obs_trace.ev_ts_ns
              && e.Obs_trace.ev_ts_ns +. e.Obs_trace.ev_dur_ns
                 <= outer.Obs_trace.ev_ts_ns +. outer.Obs_trace.ev_dur_ns
            in
            Alcotest.(check (list string))
              "emit-c spans name their files"
              [ "bench.h"; "bench_client.c"; "bench_server.c" ]
              (List.sort compare
                 (List.map
                    (fun e -> List.assoc "file" e.Obs_trace.ev_args)
                    (named "emit-c")));
            List.iter
              (fun e ->
                Alcotest.(check bool) "emit-c nested under backend" true
                  (List.exists
                     (fun b ->
                       e.Obs_trace.ev_depth = b.Obs_trace.ev_depth + 1
                       && within b e)
                     (named "backend"));
                Alcotest.(check bool) "no plan-compile inside emit-c" false
                  (List.exists (within e) (named "plan-compile")))
              (named "emit-c")));
  ]

let suite =
  [
    ("obs:clock", clock_tests);
    ("obs:instruments", instrument_tests);
    ("obs:histograms", hist_tests);
    ("obs:spans", span_tests);
    ("obs:exporters", exporter_tests);
    ("obs:pipeline", pipeline_tests);
  ]
