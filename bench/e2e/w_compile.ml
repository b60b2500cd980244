(* compile: cold Driver.compile of seeded synthetic CORBA interfaces
   plus the paper's fixture IDLs under four (presentation, back end)
   pairs -- the compiler's own job, and the only workload in which
   frontend, presgen, backend, plan compilation and the passes run
   while no stub executes. *)

open Meter

type pair = {
  p_name : string;
  pres : Driver.presentation;
  backend : Driver.backend;
  enc : Encoding.t;
}

let pairs =
  Driver.
    [
      { p_name = "corba-c/iiop"; pres = Pres_corba; backend = Back_iiop; enc = Encoding.cdr };
      { p_name = "rpcgen-c/oncrpc"; pres = Pres_rpcgen; backend = Back_oncrpc; enc = Encoding.xdr };
      { p_name = "fluke-c/fluke"; pres = Pres_fluke; backend = Back_fluke; enc = Encoding.fluke };
      { p_name = "corba-c/mach3"; pres = Pres_corba; backend = Back_mach3; enc = Encoding.mach3 };
    ]

type spec = {
  idl : Driver.idl;
  file : string;
  source : string;
  synthetic : bool;
  raises : bool;  (** declares exceptions: CORBA presentation only *)
}

type job = {
  spec : spec;
  pair : pair;
  mutable digest : Digest.t;
  mutable bytes : int;
}

let fixtures =
  [
    ("mail.idl", Driver.Idl_corba, Paper_fixtures.mail_corba, false);
    ("mail.x", Driver.Idl_onc, Paper_fixtures.mail_onc, false);
    ("bench.idl", Driver.Idl_corba, Paper_fixtures.bench_idl, false);
    ("dir.idl", Driver.Idl_corba, Paper_fixtures.dir_idl, true);
  ]

let jobs st ~count =
  let synth =
    List.mapi
      (fun i source ->
        { idl = Driver.Idl_corba; file = Printf.sprintf "synth%d.idl" i; source;
          synthetic = true; raises = false })
      (Inputs.synthetic_idls st ~count)
  in
  let fix =
    List.map
      (fun (file, idl, source, raises) -> { idl; file; source; synthetic = false; raises })
      fixtures
  in
  List.concat_map
    (fun spec ->
      List.filter_map
        (fun pair ->
          if spec.raises && pair.pres <> Driver.Pres_corba then None
          else Some { spec; pair; digest = Digest.string ""; bytes = 0 })
        pairs)
    (synth @ fix)
  |> Array.of_list

let compile j =
  Driver.compile j.spec.idl j.pair.pres j.pair.backend ~file:j.spec.file
    ~source:j.spec.source ~interface:None

(* The traced run calls the stage functions Driver.compile composes,
   one span each, so every stage is timed from outside. *)
let compile_staged j =
  let aoi =
    Span.span "frontend.parse" (fun () ->
        Driver.parse_spec j.spec.idl ~file:j.spec.file j.spec.source)
  in
  let q = fst (List.hd (Aoi.interfaces aoi)) in
  let pc =
    Span.span "presgen.generate" (fun () ->
        match j.pair.pres with
        | Driver.Pres_corba -> Presgen_corba.generate aoi q
        | Driver.Pres_rpcgen -> Presgen_rpcgen.generate aoi q
        | Driver.Pres_fluke -> Presgen_fluke.generate aoi q
        | Driver.Pres_corba_len | Driver.Pres_mig -> invalid_arg "unused presentation")
  in
  Span.span "backend.generate" (fun () ->
      match j.pair.backend with
      | Driver.Back_iiop -> Be_iiop.generate pc
      | Driver.Back_oncrpc -> Be_xdr.generate pc
      | Driver.Back_fluke -> Be_fluke.generate pc
      | Driver.Back_mach3 -> Be_mach.generate pc)

let total_bytes files = List.fold_left (fun a (_, s) -> a + String.length s) 0 files
let digest files = Digest.string (String.concat "\000" (List.concat_map (fun (n, s) -> [ n; s ]) files))

let present j =
  Driver.present j.spec.idl j.pair.pres ~file:j.spec.file ~source:j.spec.source
    ~interface:None

let method_specs j =
  let pc = present j in
  List.map
    (fun st -> Paper_fixtures.request_spec pc ~op:st.Pres_c.os_op.Aoi.op_name)
    pc.Pres_c.pc_stubs

(* Every operation of every synthetic interface, under every pair's
   encoding: Stub_opt bytes equal to Stub_naive bytes, and the decode
   gives the values back.  Returns (cases, mismatches). *)
let stub_oracle st jobs =
  let cases = ref 0 and bad = ref 0 in
  Array.iter
    (fun j ->
      if j.spec.synthetic then
        List.iter
          (fun (ms : Paper_fixtures.method_spec) ->
            let enc = j.pair.enc
            and mint = ms.Paper_fixtures.ms_mint
            and named = ms.Paper_fixtures.ms_named in
            let args =
              List.filter_map
                (function
                  | Plan_compile.Rvalue (_, idx, pres) ->
                      Some (Workload.random ~string_max:16 ~seq_max:4 st mint ~named idx pres)
                  | Plan_compile.Rconst_int _ | Plan_compile.Rconst_str _ -> None)
                ms.Paper_fixtures.ms_roots
              |> Array.of_list
            in
            incr cases;
            let ok =
              try
                let w = Mbuf.create 256 and nw = Mbuf.create 256 in
                Stub_opt.compile_encoder ~enc ~mint ~named ms.Paper_fixtures.ms_roots w args;
                Stub_naive.compile_encoder ~enc ~mint ~named ms.Paper_fixtures.ms_roots nw args;
                let back =
                  Stub_opt.compile_decoder ~enc ~mint ~named ms.Paper_fixtures.ms_droots
                    (Mbuf.reader w)
                in
                Bytes.equal (Mbuf.contents w) (Mbuf.contents nw)
                && Array.length back = Array.length args
                && Array.for_all2 Value.equal back args
              with _ -> false
            in
            if not ok then incr bad)
          (method_specs j))
    jobs;
  (!cases, !bad)

let sampled = ref 0

(* Cache traffic inside each cold compile, summed while traced: the
   caches are reset before every compile, so their own counters only
   ever hold one compile's worth. *)
let hits = ref 0
let lookups = ref 0

let count_cache_traffic () =
  List.iter
    (fun (_, (st : Plan_cache.stats)) ->
      hits := !hits + st.Plan_cache.hits;
      lookups := !lookups + st.Plan_cache.hits + st.Plan_cache.misses)
    (Plan_cache.all_stats ())

(* Whole cycles over the jobs, each compile from cold caches.  Every
   output is checked against set-up's digest, outside the timed
   region. *)
let drive jobs sl ~deadline =
  let traced = !Span.on in
  Slicer.start sl;
  while now_ns () < deadline do
    Array.iter
      (fun j ->
        Span.sampled sampled (fun () ->
            Span.span "client" (fun () ->
                Plan_cache.reset_all ();
                let t0 = now_ns () in
                match if traced then compile_staged j else compile j with
                | files ->
                    let t1 = now_ns () in
                    if traced then count_cache_traffic ();
                    let same = Digest.equal (digest files) j.digest in
                    Slicer.exclude sl (now_ns () -. t1);
                    if same then Slicer.ok sl (t1 -. t0) else Slicer.fail sl
                | exception _ -> Slicer.fail sl)))
      jobs;
    Slicer.boundary sl
  done;
  Slicer.close sl

let run (o : opts) =
  let workload = "compile" in
  let st = Inputs.rng ~seed:o.seed workload in
  let jobs = jobs st ~count:(if o.smoke then 4 else 32) in
  let (), setup =
    timed_setup o (fun () ->
        Array.iter
          (fun j ->
            Plan_cache.reset_all ();
            ignore (compile j))
          jobs)
  in
  (* reference outputs, and the stub oracle *)
  let compile_failures = ref 0 in
  Array.iter
    (fun j ->
      Plan_cache.reset_all ();
      match compile j with
      | f ->
          j.digest <- digest f;
          j.bytes <- total_bytes f
      | exception _ -> incr compile_failures)
    jobs;
  let cases, bad = stub_oracle st jobs in
  let pool0 = Mbuf.pool_stats () in
  let rows, slicers =
    if not o.traced then begin
      let sl = measure o (drive jobs) in
      (e2e_rows ~workload ~setup sl, [ sl ])
    end
    else begin
      let t = traced_run o (drive jobs) in
      Meter.write_trace o;
      let row = Cell.row ~workload in
      let per_call name = [ Span.self name /. float_of_int (max 1 (Span.calls name)) /. 1e3 ] in
      let stages =
        [
          row "frontend.parse_us" "us" (per_call "frontend.parse");
          row "presgen.generate_us" "us" (per_call "presgen.generate");
          row "backend.generate_us" "us" (per_call "backend.generate");
          row "backend.c_bytes" "B"
            [ float_of_int (Array.fold_left (fun a j -> a + j.bytes) 0 jobs)
              /. float_of_int (Array.length jobs) ];
        ]
      in
      let plans =
        List.concat_map
          (fun j -> List.map (fun ms -> { pi_enc = j.pair.enc; pi_ms = ms }) (method_specs j))
          (Array.to_list jobs)
      in
      ( traced_common_rows ~workload t
        @ stages
        @ counter_rows ~workload t ~hit_rate:(fun _ ->
              if !lookups = 0 then None else Some (float_of_int !hits /. float_of_int !lookups))
        @ plan_rows o ~workload plans,
        [ t.untraced; t.traced ] )
    end
  in
  outcome ~workload ~pool0 ~slicers
    ~oracle_cases:(Array.length jobs + cases)
    ~oracle_failed:(!compile_failures + bad)
    ~clean:true rows
