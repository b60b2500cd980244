(* The flick command-line compiler.

   flick compile --idl corba --presentation corba-c --backend iiop \
     mail.idl -o out/
   flick dump-aoi --idl onc service.x
   flick dump-presc --idl corba --presentation rpcgen-c mail.idl
   flick list-interfaces --idl corba mail.idl *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let handle_diag f =
  try f () with
  | Diag.Error d ->
      Printf.eprintf "%s\n" (Diag.to_string d);
      exit 1
  | Sys_error msg ->
      Printf.eprintf "flick: %s\n" msg;
      exit 1

(* ---- observability flags -------------------------------------------- *)

(* Cmdliner group commands only accept options after the subcommand
   name, but the trace/metrics/flight output files apply to the whole
   run, so they read naturally in either position:

     flick --trace-out=t.json compile ... mail.idl
     flick compile ... mail.idl --trace-out=t.json

   We strip them from argv before cmdliner parses it. *)
let trace_out = ref None
let metrics_out = ref None
let flight_out = ref None

let filter_obs_flags argv =
  let prefixed p a =
    String.length a > String.length p && String.sub a 0 (String.length p) = p
  in
  let tail p a = String.sub a (String.length p) (String.length a - String.length p) in
  let rec go acc = function
    | [] -> List.rev acc
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        go acc rest
    | "--metrics-out" :: v :: rest ->
        metrics_out := Some v;
        go acc rest
    | "--flight-out" :: v :: rest ->
        flight_out := Some v;
        go acc rest
    | a :: rest when prefixed "--trace-out=" a ->
        trace_out := Some (tail "--trace-out=" a);
        go acc rest
    | a :: rest when prefixed "--metrics-out=" a ->
        metrics_out := Some (tail "--metrics-out=" a);
        go acc rest
    | a :: rest when prefixed "--flight-out=" a ->
        flight_out := Some (tail "--flight-out=" a);
        go acc rest
    | a :: rest -> go (a :: acc) rest
  in
  Array.of_list (go [] (Array.to_list argv))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ---- common arguments ---------------------------------------------- *)

let source_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"IDL source file.")

let idl_arg =
  let idl_conv =
    Arg.conv
      ( (fun s ->
          match Driver.idl_of_string s with
          | Some i -> Ok i
          | None ->
              Error (`Msg (Printf.sprintf "unknown IDL %S (expected %s)" s
                             (String.concat ", " Driver.idl_names)))),
        fun ppf i ->
          Format.pp_print_string ppf
            (match i with
            | Driver.Idl_corba -> "corba"
            | Driver.Idl_onc -> "onc"
            | Driver.Idl_mig -> "mig") )
  in
  Arg.(
    value
    & opt idl_conv Driver.Idl_corba
    & info [ "i"; "idl" ] ~docv:"IDL" ~doc:"Source IDL: corba, onc, or mig.")

let pres_arg =
  let pres_conv =
    Arg.conv
      ( (fun s ->
          match Driver.presentation_of_string s with
          | Some p -> Ok p
          | None ->
              Error (`Msg (Printf.sprintf "unknown presentation %S (expected %s)"
                             s (String.concat ", " Driver.presentation_names)))),
        fun ppf p ->
          Format.pp_print_string ppf
            (match p with
            | Driver.Pres_corba -> "corba-c"
            | Driver.Pres_corba_len -> "corba-len-c"
            | Driver.Pres_rpcgen -> "rpcgen-c"
            | Driver.Pres_fluke -> "fluke-c"
            | Driver.Pres_mig -> "mig-c") )
  in
  Arg.(
    value
    & opt pres_conv Driver.Pres_corba
    & info [ "p"; "presentation" ] ~docv:"PRES"
        ~doc:"Presentation style: corba-c, corba-len-c, rpcgen-c, fluke-c, or mig-c.")

let backend_arg =
  let backend_conv =
    Arg.conv
      ( (fun s ->
          match Driver.backend_of_string s with
          | Some b -> Ok b
          | None ->
              Error (`Msg (Printf.sprintf "unknown back end %S (expected %s)" s
                             (String.concat ", " Driver.backend_names)))),
        fun ppf b ->
          Format.pp_print_string ppf
            (match b with
            | Driver.Back_iiop -> "iiop"
            | Driver.Back_oncrpc -> "oncrpc"
            | Driver.Back_mach3 -> "mach3"
            | Driver.Back_fluke -> "fluke") )
  in
  Arg.(
    value
    & opt backend_conv Driver.Back_iiop
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:"Message format and transport: iiop, oncrpc, mach3, or fluke.")

(* every Encoding.t is addressable by name; the list (and so every
   diagnostic and --help string below) includes the value-dependent
   formats msgpack and cbor *)
let encoding_names =
  List.map (fun (e : Encoding.t) -> e.Encoding.name) Encoding.all

let encoding_conv =
  Arg.conv
    ( (fun s ->
        match Encoding.by_name s with
        | Some e -> Ok e
        | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown encoding %S (expected %s)" s
                    (String.concat ", " encoding_names)))),
      fun ppf (e : Encoding.t) ->
        Format.pp_print_string ppf e.Encoding.name )

let encoding_doc what =
  Printf.sprintf "%s: %s." what (String.concat ", " encoding_names)

let interface_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "interface" ] ~docv:"NAME"
        ~doc:"Interface to compile (written A::B); defaults to the only one.")

let outdir_arg =
  Arg.(
    value
    & opt string "."
    & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")

(* ---- commands ------------------------------------------------------- *)

let compile_cmd =
  let run idl pres backend interface outdir file =
    handle_diag (fun () ->
        let source = read_file file in
        let files = Driver.compile idl pres backend ~file ~source ~interface in
        let rec mkdirs dir =
          if not (Sys.file_exists dir) then begin
            mkdirs (Filename.dirname dir);
            Unix.mkdir dir 0o755
          end
        in
        mkdirs outdir;
        Runtime.write_to outdir;
        List.iter
          (fun (name, contents) ->
            let path = Filename.concat outdir name in
            let oc = open_out path in
            output_string oc contents;
            close_out oc;
            Printf.printf "wrote %s\n" path)
          files;
        Printf.printf "wrote %s\n" (Filename.concat outdir "flick_runtime.h"))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Generate C stubs, skeleton and header.")
    Term.(
      const run $ idl_arg $ pres_arg $ backend_arg $ interface_arg $ outdir_arg
      $ source_arg)

let dump_aoi_cmd =
  let run idl file =
    handle_diag (fun () ->
        let source = read_file file in
        let spec = Driver.parse_spec idl ~file source in
        ignore (Aoi_check.check spec);
        print_string (Aoi_pp.spec_to_string spec))
  in
  Cmd.v
    (Cmd.info "dump-aoi"
       ~doc:"Parse and print the AOI intermediate representation.")
    Term.(const run $ idl_arg $ source_arg)

let dump_presc_cmd =
  let run idl pres interface file =
    handle_diag (fun () ->
        let source = read_file file in
        let pc = Driver.present idl pres ~file ~source ~interface in
        Format.printf "%a@." Pres_c.pp pc)
  in
  Cmd.v
    (Cmd.info "dump-presc"
       ~doc:"Print the PRES_C presentation description (MINT, PRES, CAST).")
    Term.(const run $ idl_arg $ pres_arg $ interface_arg $ source_arg)

let dump_plan_cmd =
  let run idl pres backend interface op decode trace forward passes encoding
      file =
    handle_diag (fun () ->
        let source = read_file file in
        let config =
          match passes with
          | None -> None
          | Some spec -> (
              match Opt_config.of_string spec with
              | Ok c -> Some c
              | Error msg -> Diag.error "dump-plan: --passes: %s" msg)
        in
        let mode =
          match forward with
          | Some name -> (
              match Driver.backend_of_string name with
              | Some dst -> Plan_dump.Forward dst
              | None ->
                  Diag.error
                    "dump-plan: --forward: unknown backend %S (one of %s)"
                    name
                    (String.concat ", " Driver.backend_names))
          | None ->
              if trace then Plan_dump.Trace
              else if decode then Plan_dump.Unmarshal
              else Plan_dump.Marshal
        in
        print_string
          (Plan_dump.render ~idl ~pres ~backend ~interface ~op ~mode ?config
             ?encoding ~file ~source ()))
  in
  let op_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "op" ] ~docv:"NAME" ~doc:"Only this operation.")
  in
  let decode_arg =
    Arg.(
      value & flag
      & info [ "decode" ]
          ~doc:
            "Print the decode (unmarshal) plan for the request instead of the \
             marshal plan.  Each loop shows its hoisted reservation \
             ($(b,ensure*)) and the element minimum its count is checked \
             against ($(b,min*)).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace-passes" ]
          ~doc:
            "Trace the optimizer pipeline instead of printing plans: one line \
             per pass with node and bounds-check counts before/after and wall \
             time, for both the encode and decode plan of each stub.  The \
             structural plan verifier runs after every pass.")
  in
  let forward_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "forward" ] ~docv:"BACKEND"
          ~doc:
            "Print the fused forward (gateway relay) plan that re-emits the \
             request under this destination backend's encoding, instead of \
             the marshal plan.  Every op line carries its copy-elision \
             provenance ($(b,# blit), $(b,# borrow), $(b,# convert), \
             $(b,# fixup), $(b,# fallback)); the footer rolls the classes \
             up.  Each loop shows its source and destination reservations \
             and its source element minimum ($(b,min=)).")
  in
  let passes_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "passes" ] ~docv:"SPEC"
          ~doc:
            "Optimizer pass selection: $(b,all), $(b,none), or a \
             comma-separated list of pass names; append $(b,+verify) to run \
             the plan verifier after each pass.")
  in
  let dump_encoding_arg =
    Arg.(
      value
      & opt (some encoding_conv) None
      & info [ "encoding" ] ~docv:"ENC"
          ~doc:
            (encoding_doc
               "Override the backend's wire encoding (how to see the \
                value-dependent msgpack/cbor plans)"))
  in
  Cmd.v
    (Cmd.info "dump-plan"
       ~doc:
         "Print the optimized marshal plans (chunks, blits, loops) for each \
          stub; with $(b,--decode), the symmetric unmarshal plans; with \
          $(b,--trace-passes), the per-pass optimizer trace; with \
          $(b,--forward), the fused gateway relay plan.")
    Term.(
      const run $ idl_arg $ pres_arg $ backend_arg $ interface_arg $ op_arg
      $ decode_arg $ trace_arg $ forward_arg $ passes_arg $ dump_encoding_arg
      $ source_arg)

let list_interfaces_cmd =
  let run idl file =
    handle_diag (fun () ->
        let source = read_file file in
        List.iter print_endline (Driver.interfaces idl ~file source))
  in
  Cmd.v
    (Cmd.info "list-interfaces" ~doc:"List the interfaces in a source file.")
    Term.(const run $ idl_arg $ source_arg)

let reuse_cmd =
  let run () = print_string (Reuse.render (Reuse.table1 ())) in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:"Print the code-reuse table of this compiler (paper Table 1).")
    Term.(const run $ const ())

(* Exercise the whole system once — compile the paper's Bench interface,
   encode/decode its three workloads through the optimized stubs, push a
   few simulated round trips — so the registry table has every row
   populated: plan caches, wire accounting, stub latency histograms,
   simulator counters. *)
let run_builtin_workload ~enc () =
  let pc = Paper_fixtures.bench_presc `Corba in
  List.iter
    (fun which ->
      let op = Paper_fixtures.op_of_payload which in
      let spec = Paper_fixtures.request_spec pc ~op in
      let e =
        Stub_opt.compile_encoder ~enc ~mint:spec.Paper_fixtures.ms_mint
          ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_roots
      in
      let d =
        Stub_opt.compile_decoder ~enc ~mint:spec.Paper_fixtures.ms_mint
          ~named:spec.Paper_fixtures.ms_named spec.Paper_fixtures.ms_droots
      in
      let v = Paper_fixtures.payload which ~bytes:1024 in
      let buf = Mbuf.acquire () in
      for _ = 1 to 8 do
        Mbuf.reset buf;
        e buf [| v |];
        ignore (d (Mbuf.reader buf))
      done;
      Mbuf.release buf)
    [ `Ints; `Rects; `Dirents ];
  let cost =
    {
      Rpc_sim.sc_name = "flick";
      sc_marshal = (fun n -> 2e-6 +. (float_of_int n *. 2e-9));
      sc_unmarshal = (fun n -> 2e-6 +. (float_of_int n *. 2e-9));
      sc_per_call = 5e-6;
    }
  in
  ignore
    (Rpc_sim.round_trip_throughput ~net:Link.ethernet_10 ~cost
       ~msg_bytes:1024 ~rounds:4 ())

let stats_cmd =
  let run encoding file =
    handle_diag (fun () ->
        Obs.set_timing true;
        let file, source =
          match file with
          | Some f -> (f, read_file f)
          | None -> ("bench.idl", Paper_fixtures.bench_idl)
        in
        ignore
          (Driver.compile Driver.Idl_corba Driver.Pres_corba
             Driver.Back_oncrpc ~file ~source ~interface:None);
        run_builtin_workload ~enc:encoding ();
        (* A short traced serve run so the request-phase breakdown section
           of the registry has data to report. *)
        Obs_request.set_enabled true;
        ignore
          (Rpc_serve.run_workload ~enc:encoding ~requests_per_conn:32
             ~conns:4 ());
        Printf.printf "workload encoding: %s\n\n" encoding.Encoding.name;
        print_string (Obs.render_table ()))
  in
  let stats_encoding_arg =
    Arg.(
      value
      & opt encoding_conv Encoding.xdr
      & info [ "encoding" ] ~docv:"ENC"
          ~doc:(encoding_doc "Wire encoding for the built-in workload"))
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "CORBA IDL file to compile before reporting (default: the paper's \
             built-in Bench interface).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Compile an interface, run the built-in encode/decode and simulated \
          RPC workload, and print the unified metrics registry: plan-cache \
          hit rates, wire-buffer copy/borrow accounting, per-operation stub \
          latency and size histograms, simulator counters.")
    Term.(const run $ stats_encoding_arg $ file_arg)

let serve_cmd =
  let run conns requests enc max_in_flight =
    handle_diag (fun () ->
        Obs_request.set_enabled true;
        let config =
          { Rpc_serve.default_config with Rpc_serve.max_in_flight }
        in
        let p =
          Rpc_serve.run_workload ~enc ~requests_per_conn:requests ~config
            ~conns ()
        in
        let st = p.Rpc_serve.sp_stats in
        Printf.printf
          "%d connections x %d echo requests (%s, 1 KiB ints, budget %d)\n\n"
          conns requests enc.Encoding.name max_in_flight;
        Printf.printf "  completed   %8d of %d\n" p.Rpc_serve.sp_ok
          p.Rpc_serve.sp_requests;
        Printf.printf "  shed        %8d (%d gave up after retry)\n"
          st.Rpc_serve.st_shed p.Rpc_serve.sp_shed_final;
        Printf.printf "  retransmits %8d\n" p.Rpc_serve.sp_retransmits;
        Printf.printf "  throughput  %8.0f requests/s (virtual)\n"
          p.Rpc_serve.sp_rps;
        Printf.printf "  latency     %8.0f us p50, %.0f us p99\n"
          p.Rpc_serve.sp_p50_us p.Rpc_serve.sp_p99_us;
        Printf.printf "  in flight   %8d high water (budget %d)\n"
          st.Rpc_serve.st_in_flight_hw max_in_flight;
        Printf.printf "  flushes     %8d (%d replies coalesced)\n"
          st.Rpc_serve.st_flushes st.Rpc_serve.st_coalesced;
        Printf.printf "  wire        %8d bytes in, %d bytes out\n\n"
          st.Rpc_serve.st_bytes_in st.Rpc_serve.st_bytes_out;
        print_string (Obs.render_table ());
        (* Fault paths always land in the flight ring; if any did and no
           explicit --flight-out was given, dump the ring anyway so the
           evidence is not lost when the process exits. *)
        let faulted =
          List.exists
            (fun r -> Obs_request.outcome r <> Obs_request.Rok)
            (Obs_request.ring_records ())
        in
        if !flight_out = None && faulted then begin
          let path = "flick-flight.json" in
          write_file path (Obs_request.flight_to_json ());
          Printf.printf "\nfaulted requests in flight ring; wrote %s\n" path
        end)
  in
  let conns_arg =
    Arg.(
      value & opt int 8
      & info [ "conns" ] ~docv:"N" ~doc:"Number of simulated connections.")
  in
  let requests_arg =
    Arg.(
      value & opt int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Echo requests per connection.")
  in
  let encoding_arg =
    Arg.(
      value
      & opt encoding_conv Encoding.xdr
      & info [ "encoding" ] ~docv:"ENC"
          ~doc:(encoding_doc "Wire encoding"))
  in
  let budget_arg =
    Arg.(
      value
      & opt int Rpc_serve.default_config.Rpc_serve.max_in_flight
      & info [ "max-in-flight" ] ~docv:"N"
          ~doc:"Backpressure budget; requests beyond it are shed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent RPC server loop (socket-free, simulated time): \
          N connections issue echo requests through the compiled marshal \
          plans, with connection demux, bounded in-flight backpressure, and \
          coalesced reply flushes.  Prints throughput, shed rate, latency \
          percentiles, and the metrics registry.")
    Term.(const run $ conns_arg $ requests_arg $ encoding_arg $ budget_arg)

let main =
  Cmd.group
    (Cmd.info "flick" ~version:"1.0"
       ~doc:
         "A flexible, optimizing IDL compiler (OCaml reproduction of Eide et \
          al., PLDI 1997).  $(b,--trace-out=FILE) (any position) writes a \
          Chrome trace_event JSON of the run's compile stages, optimizer \
          passes and simulated RPCs; $(b,--metrics-out=FILE) writes the \
          metrics registry as JSON lines; $(b,--flight-out=FILE) enables \
          the request flight recorder and writes its ring as JSON.")
    [
      compile_cmd; dump_aoi_cmd; dump_presc_cmd; dump_plan_cmd;
      list_interfaces_cmd; reuse_cmd; stats_cmd; serve_cmd;
    ]

let () =
  let argv = filter_obs_flags Sys.argv in
  if !trace_out <> None then begin
    Obs_trace.set_enabled true;
    Obs.set_timing true
  end;
  if !metrics_out <> None then Obs.set_timing true;
  if !flight_out <> None then Obs_request.set_enabled true;
  let code = Cmd.eval ~argv main in
  (match !trace_out with
  | Some path -> write_file path (Obs_trace.to_chrome_json ())
  | None -> ());
  (match !metrics_out with
  | Some path -> write_file path (Obs.to_jsonl ())
  | None -> ());
  (match !flight_out with
  | Some path -> write_file path (Obs_request.flight_to_json ())
  | None -> ());
  exit code
