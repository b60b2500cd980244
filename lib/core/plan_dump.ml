(* Rendering for [flick dump-plan].

   The CLI is a thin shell around this module so the driver tests can
   cover the interesting paths — decode plans, relay plans, unknown
   operations — without running the binary.  Every failure surfaces as
   Diag.Error so the CLI's one handler formats it and exits non-zero;
   in particular an Invalid_argument escaping a plan compiler is turned
   into a diagnostic rather than an uncaught-exception backtrace. *)

type mode =
  | Marshal  (** the client-side encode plan (default) *)
  | Unmarshal  (** the server-side decode plan ([--decode]) *)
  | Forward of Driver.backend
      (** the fused relay plan into this destination backend's encoding
          ([--forward]) *)

let request_params (st : Pres_c.op_stub) =
  List.filter
    (fun (pi : Pres_c.param_info) ->
      match pi.Pres_c.pi_dir with
      | Aoi.In | Aoi.Inout -> true
      | Aoi.Out -> false)
    st.Pres_c.os_params

let roots_of st =
  List.map
    (fun (pi : Pres_c.param_info) ->
      Plan_compile.Rvalue
        ( Mplan.Rparam
            { index = 0; name = pi.Pres_c.pi_name; deref = pi.Pres_c.pi_byref },
          pi.Pres_c.pi_mint,
          pi.Pres_c.pi_pres ))
    (request_params st)

let droots_of st =
  List.map
    (fun (pi : Pres_c.param_info) ->
      Dplan_compile.Dvalue (pi.Pres_c.pi_mint, pi.Pres_c.pi_pres))
    (request_params st)

(* A compiler bug (as opposed to an unsupported combination, which the
   compilers already report through Diag) must still come out as a
   diagnostic, not a backtrace. *)
let guarded what f =
  try f () with Invalid_argument msg ->
    Diag.error "dump-plan: internal error compiling the %s: %s" what msg

let select_stubs (pc : Pres_c.t) op =
  match op with
  | None -> pc.Pres_c.pc_stubs
  | Some name -> (
      match
        List.filter
          (fun st -> st.Pres_c.os_op.Aoi.op_name = name)
          pc.Pres_c.pc_stubs
      with
      | [] ->
          Diag.error "dump-plan: no operation named %S (available: %s)" name
            (String.concat ", "
               (List.map
                  (fun (st : Pres_c.op_stub) -> st.Pres_c.os_op.Aoi.op_name)
                  pc.Pres_c.pc_stubs))
      | stubs -> stubs)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

(* The copy-elision tally: how many ops of each provenance class the
   relay executes, counting through loop and optional bodies.  The
   per-op provenance is already on every rendered line (pp_op's
   [# tag]); this is the rollup the EXPERIMENTS table quotes. *)
let elision_summary (plan : Fplan.plan) =
  let tally = Hashtbl.create 8 in
  let bump tag =
    Hashtbl.replace tally tag
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally tag))
  in
  let rec walk op =
    bump (Fplan.provenance op);
    match op with
    | Fplan.F_loop { body; _ } | Fplan.F_opt { body } -> List.iter walk body
    | _ -> ()
  in
  List.iter walk plan.Fplan.f_ops;
  let parts =
    List.filter_map
      (fun tag ->
        match Hashtbl.find_opt tally tag with
        | Some n -> Some (Printf.sprintf "%s %d" tag n)
        | None -> None)
      [ "borrow"; "blit"; "convert"; "fixup"; "fallback"; "align"; "loop";
        "opt" ]
  in
  Printf.sprintf "elision: %s\n"
    (if parts = [] then "(empty plan)" else String.concat ", " parts)

(* One line per encode loop naming how Stub_opt stores it (by
   Dplan.store_rows), as a --decode frame line names a rows loop. *)
let rec loop_lines ops =
  String.concat ""
    (List.map
       (fun (op : Mplan.op) ->
         match op with
         | Mplan.Loop { arr; var; body; _ } ->
             Format.asprintf "loop _e%d in %a: %s\n%s" var Mplan.pp_rv arr
               (match Dplan.store_rows ~var body with
               | Some rs -> Dplan.build_name (Dplan.Int_rows rs.Dplan.rs_rows)
               | None -> "per element")
               (loop_lines body)
         | Mplan.Switch { arms; default; _ } ->
             loop_lines (List.concat_map (fun (a : Mplan.arm) -> a.Mplan.a_body) arms @ Option.fold default ~none:[] ~some:snd)
         | _ -> "")
       ops)

(* One line per relay loop, under its verifier path: Fplan.loop_mode *)
let rec relay_loop_lines (p : Fplan.plan) path ops =
  String.concat ""
    (List.mapi
       (fun i (op : Fplan.fop) ->
         let at = Printf.sprintf "%s[%d]" path i in
         match op with
         | Fplan.F_loop { body; _ } ->
             Printf.sprintf "loop %s: %s\n%s" at
               (Fplan.loop_mode_name (Fplan.loop_mode ~src:p.Fplan.f_src ~dst:p.Fplan.f_dst body))
               (relay_loop_lines p (at ^ ".loop") body)
         | Fplan.F_opt { body } -> relay_loop_lines p (at ^ ".opt") body
         | _ -> "")
       ops)

let render ~idl ~pres ~backend ~interface ~op ~mode ?encoding ~file ~source
    () =
  let pc = Driver.present idl pres ~file ~source ~interface in
  let tr = Driver.transport_of backend in
  (* [--encoding] swaps the wire format under the backend's message
     shape — the way to inspect msgpack/cbor plans, which no transport
     selects on its own *)
  let enc =
    match encoding with Some e -> e | None -> tr.Backend_base.tr_enc
  in
  let enc_label =
    match encoding with
    | Some e -> Printf.sprintf "%s, %s" tr.Backend_base.tr_name e.Encoding.name
    | None -> tr.Backend_base.tr_name
  in
  let mint = pc.Pres_c.pc_mint and named = pc.Pres_c.pc_named in
  let b = Buffer.create 1024 in
  List.iter
    (fun (st : Pres_c.op_stub) ->
      match mode with
      | Marshal ->
          let plan =
            guarded "marshal plan" (fun () ->
                Plan_cache.plan ~enc ~mint ~named (roots_of st))
          in
          Buffer.add_string b
            (Format.asprintf "=== marshal plan: %s (%s) ===@."
               st.Pres_c.os_client_name enc_label);
          Buffer.add_string b (loop_lines plan.Plan_compile.p_ops);
          Buffer.add_string b
            (Format.asprintf "%a@." Mplan.pp plan.Plan_compile.p_ops);
          List.iter
            (fun (name, ops) ->
              Buffer.add_string b
                (Format.asprintf "--- subroutine %s ---@.%s%a@." name (loop_lines ops)
                   Mplan.pp ops))
            plan.Plan_compile.p_subs
      | Unmarshal ->
          let plan =
            guarded "unmarshal plan" (fun () ->
                Plan_cache.dplan ~enc ~mint ~named (droots_of st))
          in
          Buffer.add_string b
            (Format.asprintf "=== unmarshal plan: %s (%s) ===@."
               st.Pres_c.os_client_name enc_label);
          List.iter
            (fun (path, build) ->
              Buffer.add_string b
                (Printf.sprintf "frame %s: %s\n" path (Dplan.build_name build)))
            (Dplan.frame_builds plan);
          Buffer.add_string b (Format.asprintf "%a@." Dplan.pp_plan plan)
      | Forward dst_backend ->
          let dtr = Driver.transport_of dst_backend in
          let dst = dtr.Backend_base.tr_enc in
          let plan =
            guarded "forward plan" (fun () ->
                Fplan_compile.fuse ~src:enc ~dst ~mint ~named
                  (droots_of st) (roots_of st))
          in
          Buffer.add_string b
            (Format.asprintf "=== forward plan: %s (%s -> %s) ===@."
               st.Pres_c.os_client_name enc_label
               dtr.Backend_base.tr_name);
          Buffer.add_string b (relay_loop_lines plan "fwd" plan.Fplan.f_ops);
          Buffer.add_string b (Format.asprintf "%a@." Fplan.pp_plan plan);
          Buffer.add_string b (elision_summary plan))
    (select_stubs pc op);
  Buffer.contents b
