open Cast

type transport = {
  tr_name : string;
  tr_enc : Encoding.t;
  tr_description : string;
  tr_begin_request : Pres_c.t -> Pres_c.op_stub -> Cast.stmt list;
  tr_end_request : Cast.stmt list;
  tr_recv_reply : Cast.stmt list;
  tr_server_recv :
    Pres_c.t -> [ `Int_key of Cast.stmt list | `String_key of Cast.stmt list ];
  tr_begin_reply : Cast.stmt list;
  tr_end_reply : Cast.stmt list;
}

let find_proto (pc : Pres_c.t) name =
  let rec search = function
    | [] -> invalid_arg ("Backend_base: missing prototype for " ^ name)
    | Dfun_proto (_, n, ret, params) :: _ when n = name -> (ret, params)
    | _ :: rest -> search rest
  in
  search pc.Pres_c.pc_decls

let handle_expr (pc : Pres_c.t) =
  match pc.Pres_c.pc_style with
  | Pres_c.Corba | Pres_c.Mig | Pres_c.Fluke -> Eid "_obj"
  | Pres_c.Rpcgen -> Eid "_clnt"

let has_status (pc : Pres_c.t) = pc.Pres_c.pc_style = Pres_c.Corba

let deref_ctype = function Tptr t -> t | t -> t

let in_params (st : Pres_c.op_stub) =
  List.filter
    (fun (pi : Pres_c.param_info) ->
      match pi.Pres_c.pi_dir with Aoi.In | Aoi.Inout -> true | Aoi.Out -> false)
    st.Pres_c.os_params

let out_params (st : Pres_c.op_stub) =
  List.filter
    (fun (pi : Pres_c.param_info) ->
      match pi.Pres_c.pi_dir with Aoi.Out | Aoi.Inout -> true | Aoi.In -> false)
    st.Pres_c.os_params

let request_roots (st : Pres_c.op_stub) =
  List.mapi
    (fun i (pi : Pres_c.param_info) ->
      Plan_compile.Rvalue
        ( Mplan.Rparam
            { index = i; name = pi.Pres_c.pi_name; deref = pi.Pres_c.pi_byref },
          pi.Pres_c.pi_mint,
          pi.Pres_c.pi_pres ))
    (in_params st)

let u32_kind = Encoding.Kint { bits = 32; signed = false }

(* ------------------------------------------------------------------ *)
(* Client stubs                                                         *)
(* ------------------------------------------------------------------ *)

let buf_setup =
  [
    Sraw "  /* buffers are reused between invocations (section 3.1) */";
    Sraw "  static flick_buf_t _buf_store;";
    Sdecl ("_buf", Tptr (Tnamed "flick_buf_t"), Some (Eunop (Addr, Eid "_buf_store")));
    Sif
      ( Eunop (Lognot, Efield (Eid "_buf_store", "data")),
        [ Sexpr (call "flick_buf_init" [ Eid "_buf" ]) ],
        [] );
    Sexpr (call "flick_buf_reset" [ Eid "_buf" ]);
  ]

let zero_return ret_ct =
  match ret_ct with
  | Tvoid -> Sreturn None
  | _ -> Sreturn (Some (Ecast (ret_ct, num 0)))

let client_stub (tr : transport) (pc : Pres_c.t) (st : Pres_c.op_stub) : decl =
  let enc = tr.tr_enc in
  let be = enc.Encoding.big_endian in
  let bee = if be then num 1 else num 0 in
  let ret_ct, params = find_proto pc st.Pres_c.os_client_name in
  let named = pc.Pres_c.pc_named in
  let mint = pc.Pres_c.pc_mint in
  let plan =
    Plan_cache.plan ~enc ~mint ~named (request_roots st)
  in
  let marshal = Cgen.marshal_stmts ~enc plan.Plan_compile.p_ops in
  let invoke =
    [
      Sraw "  /* exchange the message with the server */";
      Sdecl
        ( "_msg_store",
          Tnamed "flick_msg_t",
          Some (call "flick_invoke" [ handle_expr pc; Eid "_buf" ]) );
      Sdecl ("_msg", Tptr (Tnamed "flick_msg_t"), Some (Eunop (Addr, Eid "_msg_store")));
    ]
  in
  let decode_out (pi : Pres_c.param_info) =
    Cgen.unmarshal_stmts ~enc ~mint ~named
      ~dest:(Eunop (Deref, Eid pi.Pres_c.pi_name))
      pi.Pres_c.pi_mint pi.Pres_c.pi_pres
  in
  let ret_stmts =
    match st.Pres_c.os_return with
    | None ->
        List.concat_map decode_out (out_params st) @ [ Sreturn None ]
    | Some r when r.Pres_c.pi_byref ->
        let base = deref_ctype r.Pres_c.pi_ctype in
        [
          Sdecl
            ( "_ret",
              r.Pres_c.pi_ctype,
              Some (Ecast (r.Pres_c.pi_ctype, call "flick_salloc" [ Esizeof base ]))
            );
        ]
        @ Cgen.unmarshal_stmts ~enc ~mint ~named
            ~dest:(Eunop (Deref, Eid "_ret"))
            r.Pres_c.pi_mint r.Pres_c.pi_pres
        @ List.concat_map decode_out (out_params st)
        @ [ Sreturn (Some (Eid "_ret")) ]
    | Some r ->
        [ Sdecl ("_ret", r.Pres_c.pi_ctype, None) ]
        @ Cgen.unmarshal_stmts ~enc ~mint ~named ~dest:(Eid "_ret")
            r.Pres_c.pi_mint r.Pres_c.pi_pres
        @ List.concat_map decode_out (out_params st)
        @ [ Sreturn (Some (Eid "_ret")) ]
  in
  let reply_handling =
    if st.Pres_c.os_op.Aoi.op_oneway then
      [
        Sexpr (call "flick_invoke" [ handle_expr pc; Eid "_buf" ]);
        Sreturn None;
      ]
    else
      invoke @ tr.tr_recv_reply
      @
      if has_status pc then
        let exc_chain =
          List.fold_right
            (fun (wire, (pi : Pres_c.param_info)) otherwise ->
              [
                Sif
                  ( Ebinop (Eq, call "strcmp" [ Eid "_exckey"; Estr wire ], num 0),
                    [
                      Sdecl
                        ( "_exc",
                          pi.Pres_c.pi_ctype,
                          Some
                            (Ecast
                               ( pi.Pres_c.pi_ctype,
                                 call "flick_salloc"
                                   [ Esizeof (deref_ctype pi.Pres_c.pi_ctype) ]
                               )) );
                    ]
                    @ Cgen.unmarshal_stmts ~enc ~mint ~named
                        ~dest:(Eunop (Deref, Eid "_exc"))
                        pi.Pres_c.pi_mint pi.Pres_c.pi_pres
                    @ [
                        Sexpr
                          (call "flick_env_raise"
                             [ Eid "_ev"; Estr wire; Eid "_exc" ]);
                      ],
                    otherwise );
              ])
            st.Pres_c.os_exceptions
            [ Sexpr (call "flick_fail" [ Estr "unknown user exception" ]) ]
        in
        (if enc.Encoding.typed_headers then
           [ Sexpr (call "flick_msg_skip_hdr" [ Eid "_msg" ]) ]
         else [])
        @ [
          Sdecl ("_status", uint32_t, Some (call "flick_get_u32" [ Eid "_msg"; bee ]));
          Sif
            ( Ebinop (Ne, Eid "_status", num 0),
              (if enc.Encoding.typed_headers then
                 [ Sexpr (call "flick_msg_skip_hdr" [ Eid "_msg" ]) ]
               else [])
              @ [
                Sraw "    char _exckey[128];";
                Sdecl ("_exclen", uint32_t, None);
                Sexpr
                  (call "flick_get_key"
                     [
                       Eid "_msg"; Eid "_exckey"; Esizeof (Tarray (Tchar, Some 128));
                       Eunop (Addr, Eid "_exclen");
                       num (if enc.Encoding.string_nul then 1 else 0);
                       num enc.Encoding.pad_unit; bee;
                     ]);
              ]
              @ exc_chain
              @ [ zero_return ret_ct ],
              [] );
        ]
        @ ret_stmts
      else ret_stmts
  in
  Dfun
    ( Public,
      st.Pres_c.os_client_name,
      ret_ct,
      params,
      buf_setup
      @ tr.tr_begin_request pc st
      @ [ Scomment "marshal the request (compiled marshal plan)" ]
      @ marshal @ tr.tr_end_request @ reply_handling )

(* ------------------------------------------------------------------ *)
(* Server dispatch                                                      *)
(* ------------------------------------------------------------------ *)

(* The word-chunked demultiplexer of section 3.3: operation names are
   compared one 32-bit chunk at a time via nested switches. *)
let word_of_key name i =
  let b j =
    if (4 * i) + j < String.length name then
      Int64.of_int (Char.code name.[(4 * i) + j])
    else 0L
  in
  Int64.logor
    (Int64.shift_left (b 0) 24)
    (Int64.logor (Int64.shift_left (b 1) 16)
       (Int64.logor (Int64.shift_left (b 2) 8) (b 3)))

let rec match_words ops word_idx : stmt list =
  match ops with
  | [ (label, name) ] when 4 * word_idx >= String.length name -> [ Sgoto label ]
  | _ ->
      let groups = Hashtbl.create 4 in
      List.iter
        (fun (label, name) ->
          let w = word_of_key name word_idx in
          let existing = try Hashtbl.find groups w with Not_found -> [] in
          Hashtbl.replace groups w ((label, name) :: existing))
        ops;
      let cases =
        Hashtbl.fold
          (fun w members acc ->
            {
              sc_labels = [ Eint w ];
              sc_body = match_words (List.rev members) (word_idx + 1);
            }
            :: acc)
          groups []
        @ [
            {
              sc_labels = [];
              sc_body = [ Sexpr (call "flick_fail" [ Estr "unknown operation" ]) ];
            };
          ]
      in
      [
        Sswitch
          ( call "FLICK_LD_32BE" [ Ebinop (Add, Eid "_key", num (4 * word_idx)) ],
            cases );
      ]

let string_demux (stubs : (string * Pres_c.op_stub) list) : stmt list =
  let by_len = Hashtbl.create 4 in
  List.iter
    (fun (label, (st : Pres_c.op_stub)) ->
      match st.Pres_c.os_request_case with
      | Mint.Cstring name ->
          let len = String.length name in
          let existing = try Hashtbl.find by_len len with Not_found -> [] in
          Hashtbl.replace by_len len ((label, name) :: existing)
      | Mint.Cint _ | Mint.Cbool _ | Mint.Cchar _ ->
          invalid_arg "Backend_base: mixed request keys")
    stubs;
  let cases =
    Hashtbl.fold
      (fun len members acc ->
        { sc_labels = [ num len ]; sc_body = match_words (List.rev members) 0 }
        :: acc)
      by_len []
    @ [
        {
          sc_labels = [];
          sc_body = [ Sexpr (call "flick_fail" [ Estr "unknown operation" ]) ];
        };
      ]
  in
  [
    Scomment "demultiplex on the operation name, one machine word at a time";
    Sexpr
      (call "memset"
         [
           Ebinop (Add, Eid "_key", Eid "_klen"); num 0;
           Ebinop (Sub, Esizeof (Tarray (Tchar, Some 128)), Eid "_klen");
         ]);
    Sswitch (Eid "_klen", cases);
  ]

let int_demux (stubs : (string * Pres_c.op_stub) list) : stmt list =
  let cases =
    List.map
      (fun (label, (st : Pres_c.op_stub)) ->
        let v =
          match st.Pres_c.os_request_case with
          | Mint.Cint n -> Eint n
          | Mint.Cbool b -> num (if b then 1 else 0)
          | Mint.Cchar c -> Echar c
          | Mint.Cstring _ -> invalid_arg "Backend_base: mixed request keys"
        in
        { sc_labels = [ v ]; sc_body = [ Sgoto label ] })
      stubs
    @ [
        {
          sc_labels = [];
          sc_body = [ Sexpr (call "flick_fail" [ Estr "unknown operation" ]) ];
        };
      ]
  in
  [ Sswitch (Eid "_op", cases) ]

let server_case (tr : transport) (pc : Pres_c.t) (st : Pres_c.op_stub)
    ~(label : string) ~(has_int_key : bool) : stmt list =
  let enc = tr.tr_enc in
  let named = pc.Pres_c.pc_named in
  let mint = pc.Pres_c.pc_mint in
  let _, impl_params = find_proto pc st.Pres_c.os_server_name in
  let ret_ct, _ = find_proto pc st.Pres_c.os_server_name in
  (* locals for every parameter; in-params are decoded, out-params are
     filled by the work function *)
  let local_decls =
    List.map
      (fun (pi : Pres_c.param_info) ->
        let base = deref_ctype pi.Pres_c.pi_ctype in
        let ty = if pi.Pres_c.pi_byref then base else pi.Pres_c.pi_ctype in
        Sdecl (pi.Pres_c.pi_name, ty, None))
      st.Pres_c.os_params
  in
  let decode_ins =
    List.concat_map
      (fun (pi : Pres_c.param_info) ->
        match pi.Pres_c.pi_dir with
        | Aoi.In | Aoi.Inout ->
            Cgen.unmarshal_stmts ~enc ~mint ~named ~dest:(Eid pi.Pres_c.pi_name)
              pi.Pres_c.pi_mint pi.Pres_c.pi_pres
        | Aoi.Out -> [])
      st.Pres_c.os_params
  in
  let arg_of (pname, pty) =
    match pname with
    | "_obj" -> Ecast (pty, Eid "_state")
    | "_ev" -> Eid "_ev"
    | "_rqstp" -> Eunop (Addr, Eid "_rq")
    | _ -> (
        match
          List.find_opt
            (fun (pi : Pres_c.param_info) -> pi.Pres_c.pi_name = pname)
            st.Pres_c.os_params
        with
        | Some pi ->
            if pi.Pres_c.pi_byref then Eunop (Addr, Eid pname) else Eid pname
        | None -> (
            (* explicit string-length parameters are derived on the
               server side *)
            match
              List.find_opt
                (fun (pi : Pres_c.param_info) ->
                  match pi.Pres_c.pi_pres with
                  | Pres.Terminated_string_len { len_param } ->
                      len_param = pname
                  | _ -> false)
                st.Pres_c.os_params
            with
            | Some pi ->
                Ecast (uint32_t, call "strlen" [ Eid pi.Pres_c.pi_name ])
            | None ->
                invalid_arg ("Backend_base: unknown parameter " ^ pname)))
  in
  let args = List.map arg_of impl_params in
  let call_impl =
    match st.Pres_c.os_op.Aoi.op_return with
    | Aoi.Void -> [ Sexpr (Ecall (st.Pres_c.os_server_name, args)) ]
    | _ ->
        [
          Sdecl
            ( "_ret",
              ret_ct,
              Some (Ecall (st.Pres_c.os_server_name, args)) );
        ]
  in
  let reply_roots =
    (if has_status pc then [ Plan_compile.Rconst_int (0L, u32_kind) ] else [])
    @ (match st.Pres_c.os_return with
      | None -> []
      | Some r ->
          [
            Plan_compile.Rvalue
              ( Mplan.Rparam
                  { index = 0; name = "_ret"; deref = r.Pres_c.pi_byref },
                r.Pres_c.pi_mint,
                r.Pres_c.pi_pres );
          ])
    @ List.map
        (fun (pi : Pres_c.param_info) ->
          Plan_compile.Rvalue
            ( Mplan.Rparam { index = 0; name = pi.Pres_c.pi_name; deref = false },
              pi.Pres_c.pi_mint,
              pi.Pres_c.pi_pres ))
        (out_params st)
  in
  let reply_plan = Plan_cache.plan ~enc ~mint ~named reply_roots in
  let marshal_reply = Cgen.marshal_stmts ~enc reply_plan.Plan_compile.p_ops in
  let exception_replies =
    if has_status pc && st.Pres_c.os_exceptions <> [] then
      let chain =
        List.fold_right
          (fun (wire, (pi : Pres_c.param_info)) otherwise ->
            let exc_plan =
              Plan_cache.plan ~enc ~mint ~named
                [
                  Plan_compile.Rconst_int (1L, u32_kind);
                  Plan_compile.Rconst_str wire;
                  Plan_compile.Rvalue
                    ( Mplan.Rparam { index = 0; name = "_exc"; deref = true },
                      pi.Pres_c.pi_mint,
                      pi.Pres_c.pi_pres );
                ]
            in
            [
              Sif
                ( Ebinop
                    ( Eq,
                      call "strcmp" [ Earrow (Eid "_ev", "exc_name"); Estr wire ],
                      num 0 ),
                  [
                    Sdecl
                      ( "_exc",
                        pi.Pres_c.pi_ctype,
                        Some
                          (Ecast (pi.Pres_c.pi_ctype, Earrow (Eid "_ev", "exc_value")))
                      );
                  ]
                  @ Cgen.marshal_stmts ~enc exc_plan.Plan_compile.p_ops,
                  otherwise );
            ])
          st.Pres_c.os_exceptions
          [ Sexpr (call "flick_fail" [ Estr "undeclared exception raised" ]) ]
      in
      [
        Sif
          ( Earrow (Eid "_ev", "_major"),
            tr.tr_begin_reply @ chain @ tr.tr_end_reply @ [ Sreturn None ],
            [] );
      ]
    else []
  in
  let rq_local =
    if pc.Pres_c.pc_style = Pres_c.Rpcgen then
      [
        Sraw "    flick_svc_req_t _rq = { 0 };";
        (if has_int_key then Sexpr (Eassign (Efield (Eid "_rq", "proc"), Ecast (Tnamed "int", Eid "_op")))
         else Scomment "no numeric key on this transport");
      ]
    else []
  in
  [ Slabel label;
    Sblock
      (rq_local @ local_decls
      @ [ Scomment "unmarshal the request" ]
      @ decode_ins
      @ [ Scomment "invoke the work function" ]
      @ call_impl @ exception_replies
      @ (if st.Pres_c.os_op.Aoi.op_oneway then [ Sreturn None ]
         else
           tr.tr_begin_reply
           @ [ Scomment "marshal the reply" ]
           @ marshal_reply @ tr.tr_end_reply)
      @ [ Sreturn None ]);
  ]

let dispatch_name (pc : Pres_c.t) = pc.Pres_c.pc_name ^ "_dispatch"

let server_dispatch (tr : transport) (pc : Pres_c.t) : decl =
  let labelled =
    List.mapi (fun i st -> (Printf.sprintf "_op_%d" i, st)) pc.Pres_c.pc_stubs
  in
  let recv = tr.tr_server_recv pc in
  let has_int_key = match recv with `Int_key _ -> true | `String_key _ -> false in
  let demux =
    match recv with
    | `Int_key stmts -> stmts @ int_demux labelled
    | `String_key stmts -> stmts @ string_demux labelled
  in
  let cases =
    List.concat_map
      (fun (label, st) -> server_case tr pc st ~label ~has_int_key)
      labelled
  in
  Dfun
    ( Public,
      dispatch_name pc,
      Tvoid,
      [
        ("_msg", Tptr (Tnamed "flick_msg_t"));
        ("_out", Tptr (Tnamed "flick_buf_t"));
        ("_state", Tptr Tvoid);
      ],
      [
        Sraw "  flick_env_t _env_store;";
        Sdecl ("_ev", Tptr (Tnamed "flick_env_t"), Some (Eunop (Addr, Eid "_env_store")));
        Sdecl ("_buf", Tptr (Tnamed "flick_buf_t"), Some (Eid "_out"));
        Sexpr (call "flick_env_clear" [ Eid "_ev" ]);
        Sraw "  /* unmarshaled parameters live in the arena until we return */";
        Sexpr (call "flick_salloc_reset" []);
      ]
      @ demux @ cases )

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let banner tr pc what =
  Printf.sprintf
    "Generated by Flick (OCaml reproduction): %s of %s\n * presentation: %s, back end: %s (%s)"
    what pc.Pres_c.pc_name
    (match pc.Pres_c.pc_style with
    | Pres_c.Corba -> "corba-c"
    | Pres_c.Rpcgen -> "rpcgen-c"
    | Pres_c.Mig -> "mig-c"
    | Pres_c.Fluke -> "fluke-c")
    tr.tr_name tr.tr_description

let header_decls (tr : transport) (pc : Pres_c.t) =
  [ Dcomment (banner tr pc "header") ]
  @ pc.Pres_c.pc_decls
  @ [
      Dfun_proto
        ( Public,
          dispatch_name pc,
          Tvoid,
          [
            ("_msg", Tptr (Tnamed "flick_msg_t"));
            ("_out", Tptr (Tnamed "flick_buf_t"));
            ("_state", Tptr Tvoid);
          ] );
    ]

let header_guard (pc : Pres_c.t) = pc.Pres_c.pc_name ^ "_H"

let generate_header tr pc = Cast_pp.guard (header_guard pc) (header_decls tr pc)

let header_name (pc : Pres_c.t) = String.lowercase_ascii pc.Pres_c.pc_name ^ ".h"

(* marshal subroutines for the named (recursive) presentations *)
let marshal_subs (tr : transport) (pc : Pres_c.t) =
  List.map
    (fun (name, (idx, pres)) ->
      let plan =
        Plan_cache.plan ~enc:tr.tr_enc ~mint:pc.Pres_c.pc_mint
          ~named:pc.Pres_c.pc_named
          [
            Plan_compile.Rvalue
              (Mplan.Rparam { index = 0; name = "_v"; deref = true }, idx, pres);
          ]
      in
      (name, plan.Plan_compile.p_ops))
    pc.Pres_c.pc_named
  |> Cgen.marshal_sub_functions ~enc:tr.tr_enc

let client_decls (tr : transport) (pc : Pres_c.t) =
  Cgen.fresh_reset ();
  [
    Dcomment (banner tr pc "client stubs");
    Dinclude_local (header_name pc);
  ]
  @ marshal_subs tr pc
  @ Cgen.unmarshal_sub_functions ~enc:tr.tr_enc ~mint:pc.Pres_c.pc_mint
      ~named:pc.Pres_c.pc_named
  @ List.map (client_stub tr pc) pc.Pres_c.pc_stubs

let server_decls (tr : transport) (pc : Pres_c.t) =
  Cgen.fresh_reset ();
  [
    Dcomment (banner tr pc "server skeleton");
    Dinclude_local (header_name pc);
  ]
  @ marshal_subs tr pc
  @ Cgen.unmarshal_sub_functions ~enc:tr.tr_enc ~mint:pc.Pres_c.pc_mint
      ~named:pc.Pres_c.pc_named
  @ [ server_dispatch tr pc ]

let generate_client tr pc = Cast_pp.file (client_decls tr pc)
let generate_server tr pc = Cast_pp.file (server_decls tr pc)

(* Each file's CAST is built first (plan compilation included), then
   printed under its own span, so traces show printing apart from
   plan-compile inside [backend]. *)
let generate_files tr pc =
  let base = String.lowercase_ascii pc.Pres_c.pc_name in
  let emit name print decls =
    ( name,
      Obs_trace.with_span ~cat:"backend" ~args:[ ("file", name) ] "emit-c"
        (fun () -> print decls) )
  in
  [
    emit (base ^ ".h") (Cast_pp.guard (header_guard pc)) (header_decls tr pc);
    emit (base ^ "_client.c") Cast_pp.file (client_decls tr pc);
    emit (base ^ "_server.c") Cast_pp.file (server_decls tr pc);
  ]
