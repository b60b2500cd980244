type idl = Idl_corba | Idl_onc | Idl_mig
type presentation = Pres_corba | Pres_corba_len | Pres_rpcgen | Pres_fluke | Pres_mig
type backend = Back_iiop | Back_oncrpc | Back_mach3 | Back_fluke

let idl_of_string = function
  | "corba" -> Some Idl_corba
  | "onc" | "oncrpc" | "rpcgen" -> Some Idl_onc
  | "mig" -> Some Idl_mig
  | _ -> None

let presentation_of_string = function
  | "corba-c" | "corba" -> Some Pres_corba
  | "corba-len-c" | "corba-len" -> Some Pres_corba_len
  | "rpcgen-c" | "rpcgen" -> Some Pres_rpcgen
  | "fluke-c" | "fluke" -> Some Pres_fluke
  | "mig-c" | "mig" -> Some Pres_mig
  | _ -> None

let backend_of_string = function
  | "iiop" -> Some Back_iiop
  | "oncrpc" | "xdr" -> Some Back_oncrpc
  | "mach3" | "mach" -> Some Back_mach3
  | "fluke" -> Some Back_fluke
  | _ -> None

let idl_names = [ "corba"; "onc"; "mig" ]
let presentation_names = [ "corba-c"; "corba-len-c"; "rpcgen-c"; "fluke-c"; "mig-c" ]
let backend_names = [ "iiop"; "oncrpc"; "mach3"; "fluke" ]

let parse_spec idl ~file source =
  Obs_trace.with_span ~cat:"frontend" ~args:[ ("file", file) ] "parse"
    (fun () ->
      match idl with
      | Idl_corba -> Corba_parser.parse ~file source
      | Idl_onc -> Onc_parser.parse ~file source
      | Idl_mig -> Presgen_mig.aoi_of_mig (Mig_parser.parse ~file source))

let interfaces idl ~file source =
  let spec = parse_spec idl ~file source in
  List.map (fun (q, _) -> Aoi.qname_to_string q) (Aoi.interfaces spec)

let qname_of_string s = String.split_on_char ':' s |> List.filter (fun x -> x <> "")

let pick_interface spec interface =
  let available = Aoi.interfaces spec in
  match interface with
  | Some name -> (
      let q = qname_of_string name in
      match List.find_opt (fun (q', _) -> q' = q) available with
      | Some (q', _) -> q'
      | None -> Diag.error "no interface named %s" name)
  | None -> (
      match available with
      | [ (q, _) ] -> q
      | [] -> Diag.error "the specification declares no interfaces"
      | _ ->
          Diag.error "several interfaces found (%s); choose one with --interface"
            (String.concat ", "
               (List.map (fun (q, _) -> Aoi.qname_to_string q) available)))

(* Span names trace the pipeline of PAPER.md figure 1: "parse" covers
   source -> AOI, "presgen" AOI -> PRES_C (MINT + PRES + CAST), and
   "backend" (in [compile]) PRES_C -> C stubs; plan compilation nests
   its own spans inside (see Plan_cache). *)
let present idl presentation ~file ~source ~interface =
  match (idl, presentation) with
  | Idl_mig, (Pres_mig | Pres_corba | Pres_corba_len | Pres_rpcgen | Pres_fluke) ->
      (* the MIG front end is conjoined with its presentation generator *)
      let spec =
        Obs_trace.with_span ~cat:"frontend" ~args:[ ("file", file) ] "parse"
          (fun () -> Mig_parser.parse ~file source)
      in
      Obs_trace.with_span ~cat:"frontend" ~args:[ ("pres", "mig-c") ]
        "presgen"
        (fun () -> Presgen_mig.generate spec)
  | (Idl_corba | Idl_onc), Pres_mig ->
      Diag.error "the MIG presentation only applies to MIG input"
  | (Idl_corba | Idl_onc), _ ->
      let spec = parse_spec idl ~file source in
      let q = pick_interface spec interface in
      let pres_name =
        List.nth presentation_names
          (match presentation with
          | Pres_corba -> 0
          | Pres_corba_len -> 1
          | Pres_rpcgen -> 2
          | Pres_fluke -> 3
          | Pres_mig -> assert false)
      in
      Obs_trace.with_span ~cat:"frontend" ~args:[ ("pres", pres_name) ]
        "presgen"
        (fun () ->
          match presentation with
          | Pres_corba -> Presgen_corba.generate spec q
          | Pres_corba_len -> Presgen_corba.generate_len spec q
          | Pres_rpcgen -> Presgen_rpcgen.generate spec q
          | Pres_fluke -> Presgen_fluke.generate spec q
          | Pres_mig -> assert false)

let transport_of = function
  | Back_iiop -> Be_iiop.transport
  | Back_oncrpc -> Be_xdr.transport
  | Back_mach3 -> Be_mach.transport
  | Back_fluke -> Be_fluke.transport

let compile idl presentation backend ~file ~source ~interface =
  let pc = present idl presentation ~file ~source ~interface in
  let backend_name =
    match backend with
    | Back_iiop -> "iiop"
    | Back_oncrpc -> "oncrpc"
    | Back_mach3 -> "mach3"
    | Back_fluke -> "fluke"
  in
  Obs_trace.with_span ~cat:"backend" ~args:[ ("backend", backend_name) ]
    "backend"
    (fun () ->
      match backend with
      | Back_iiop -> Be_iiop.generate pc
      | Back_oncrpc -> Be_xdr.generate pc
      | Back_mach3 -> Be_mach.generate pc
      | Back_fluke -> Be_fluke.generate pc)
