open Cast

let counter = ref 0

let fresh_reset () = counter := 0

let fresh prefix =
  let n = !counter in
  incr counter;
  Printf.sprintf "_%s%d" prefix n

(* ------------------------------------------------------------------ *)
(* Plan paths as C lvalues                                              *)
(* ------------------------------------------------------------------ *)

let rec expr_of_rv ~vars (rv : Mplan.rv) : expr =
  match rv with
  | Mplan.Rparam { name; deref; _ } ->
      if deref then Eunop (Deref, Eid name) else Eid name
  | Mplan.Rvar i -> vars i
  | Mplan.Rfield { base; member; index } ->
      let b = expr_of_rv ~vars base in
      if String.length member > 0 && member.[0] = '[' then Eindex (b, num index)
      else Efield (b, member)
  | Mplan.Rarm { base; member; union_field; _ } ->
      Efield (Efield (expr_of_rv ~vars base, union_field), member)
  | Mplan.Ropt base -> Eunop (Deref, expr_of_rv ~vars base)
  | Mplan.Rdiscrim { base; member } -> Efield (expr_of_rv ~vars base, member)

let len_expr ~vars (arr : Mplan.rv) (via : Mplan.via) : expr =
  let a = expr_of_rv ~vars arr in
  match via with
  | Mplan.Via_seq { len_field; _ } -> Efield (a, len_field)
  | Mplan.Via_string -> Ecast (uint32_t, call "strlen" [ a ])
  | Mplan.Via_fixed n -> num n
  | Mplan.Via_opt -> Econd (a, num 1, num 0)

let buf_expr ~vars (arr : Mplan.rv) (via : Mplan.via) : expr =
  let a = expr_of_rv ~vars arr in
  match via with
  | Mplan.Via_seq { buf_field; _ } -> Efield (a, buf_field)
  | Mplan.Via_string | Mplan.Via_fixed _ -> a
  | Mplan.Via_opt -> a

(* ------------------------------------------------------------------ *)
(* Atom store/load helpers                                              *)
(* ------------------------------------------------------------------ *)

let store_macro ~be (atom : Mplan.atom) =
  let e = if be then "BE" else "LE" in
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kfloat { bits = 32 }, _ -> "FLICK_ST_F32" ^ e
  | Encoding.Kfloat _, _ -> "FLICK_ST_F64" ^ e
  | _, 1 -> "FLICK_ST_U8"
  | _, 2 -> "FLICK_ST_16" ^ e
  | _, 4 -> "FLICK_ST_32" ^ e
  | _, 8 -> "FLICK_ST_64" ^ e
  | _, n -> invalid_arg (Printf.sprintf "Cgen.store_macro: size %d" n)

(* an expression reading one atom from _msg (aligned, checked) *)
let load_call ~be (atom : Mplan.atom) : expr =
  let bee = if be then num 1 else num 0 in
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kfloat { bits = 32 }, _ -> call "flick_get_f32" [ Eid "_msg"; bee ]
  | Encoding.Kfloat _, _ ->
      call "flick_get_f64" [ Eid "_msg"; bee; num atom.Mplan.align ]
  | Encoding.Kbool, 1 -> call "flick_get_bool8" [ Eid "_msg" ]
  | Encoding.Kbool, _ -> call "flick_get_bool32" [ Eid "_msg"; bee ]
  | Encoding.Kchar, 1 -> Ecast (Tchar, call "flick_get_u8" [ Eid "_msg" ])
  | Encoding.Kchar, _ -> Ecast (Tchar, call "flick_get_32" [ Eid "_msg"; bee ])
  | Encoding.Kint { bits; signed }, size ->
      let raw =
        match size with
        | 1 -> call "flick_get_u8" [ Eid "_msg" ]
        | 2 -> call "flick_get_16" [ Eid "_msg"; bee ]
        | 4 -> call "flick_get_32" [ Eid "_msg"; bee ]
        | 8 -> call "flick_get_64" [ Eid "_msg"; bee; num atom.Mplan.align ]
        | n -> invalid_arg (Printf.sprintf "Cgen.load_call: size %d" n)
      in
      Ecast (int_of_bits ~bits ~signed, raw)

(* ------------------------------------------------------------------ *)
(* Marshal: plan ops -> statements                                      *)
(* ------------------------------------------------------------------ *)

let rec marshal_op ~enc ~vars (op : Mplan.op) : stmt list =
  let be = enc.Encoding.big_endian in
  let bee = if be then num 1 else num 0 in
  match op with
  | Mplan.Align n -> [ Sexpr (call "flick_align" [ Eid "_buf"; num n ]) ]
  | Mplan.Chunk { size; items; check; align = _ } ->
      let ptr = fresh "c" in
      let covered =
        List.map
          (fun (it : Mplan.item) ->
            match it with
            | Mplan.It_atom { off; atom; _ } -> (off, off + atom.Mplan.size)
            | Mplan.It_bytes { off; len; pad; _ } -> (off, off + len + pad)
            | Mplan.It_const { off; atom; _ } -> (off, off + atom.Mplan.size))
          items
        |> List.sort compare
      in
      let rec gaps pos acc = function
        | [] -> if pos < size then (pos, size - pos) :: acc else acc
        | (s, e) :: rest ->
            let acc = if s > pos then (pos, s - pos) :: acc else acc in
            gaps (max pos e) acc rest
      in
      let gap_stmts =
        List.rev_map
          (fun (off, len) ->
            Sexpr
              (call "memset"
                 [ Ebinop (Add, Eid ptr, num off); num 0; num len ]))
          (gaps 0 [] covered)
      in
      let item_stmts =
        List.map
          (fun (it : Mplan.item) ->
            match it with
            | Mplan.It_atom { off; atom; src } ->
                Sexpr
                  (call (store_macro ~be atom)
                     [ Ebinop (Add, Eid ptr, num off); expr_of_rv ~vars src ])
            | Mplan.It_const { off; atom; value } ->
                Sexpr
                  (call (store_macro ~be atom)
                     [ Ebinop (Add, Eid ptr, num off); Eint value ])
            | Mplan.It_bytes { off; len; pad; src } ->
                let copy =
                  Sexpr
                    (call "memcpy"
                       [
                         Ebinop (Add, Eid ptr, num off); expr_of_rv ~vars src;
                         num len;
                       ])
                in
                if pad = 0 then copy
                else
                  Sblock
                    [
                      copy;
                      Sexpr
                        (call "memset"
                           [ Ebinop (Add, Eid ptr, num (off + len)); num 0; num pad ]);
                    ])
          items
      in
      [
        Sblock
          ((if check then [ Sexpr (call "flick_ensure" [ Eid "_buf"; num size ]) ]
            else [ Scomment "capacity pre-reserved for this run" ])
          @ [ Sdecl (ptr, Tptr Tchar, Some (call "flick_ptr" [ Eid "_buf" ])) ]
          @ gap_stmts @ item_stmts
          @ [ Sexpr (call "flick_advance" [ Eid "_buf"; num size ]) ]);
      ]
  | Mplan.Ensure_count { arr; via; unit_size } ->
      [
        Sexpr
          (call "flick_ensure"
             [ Eid "_buf"; Ebinop (Mul, len_expr ~vars arr via, num unit_size) ]);
      ]
  | Mplan.Put_const_str { s; nul; pad = _ } ->
      [
        Sexpr
          (call "flick_put_str"
             [
               Eid "_buf"; Estr s; num (if nul then 1 else 0);
               num enc.Encoding.pad_unit; bee;
             ]);
      ]
  | Mplan.Put_string { src; nul; pad = _; len_src = None; borrow = _; max_len = _ } ->
      [
        Sexpr
          (call "flick_put_str"
             [
               Eid "_buf"; expr_of_rv ~vars src; num (if nul then 1 else 0);
               num enc.Encoding.pad_unit; bee;
             ]);
      ]
  | Mplan.Put_string { src; nul; pad = _; len_src = Some len; borrow = _; max_len = _ } ->
      (* the explicit-length presentation: no strlen in the stub *)
      [
        Sexpr
          (call "flick_put_str_n"
             [
               Eid "_buf"; expr_of_rv ~vars src; expr_of_rv ~vars len;
               num (if nul then 1 else 0); num enc.Encoding.pad_unit; bee;
             ]);
      ]
  | Mplan.Put_byteseq { arr; via; pad = _; borrow = _; max_len = _ } ->
      [
        Sexpr
          (call "flick_put_bseq"
             [
               Eid "_buf"; Ecast (Tconst_ptr Tchar, buf_expr ~vars arr via);
               len_expr ~vars arr via; num enc.Encoding.pad_unit; bee;
             ]);
      ]
  | Mplan.Put_blit { src; len; pad } ->
      (* the C runtime marshals into one contiguous buffer, so the blit
         stays a memcpy there; only the OCaml engine borrows.  A real
         iovec-based C runtime would append a segment here instead. *)
      [
        Sexpr
          (call "flick_put_blit"
             [
               Eid "_buf"; Ecast (Tconst_ptr Tchar, expr_of_rv ~vars src);
               num len; num pad;
             ]);
      ]
  | Mplan.Put_atom_array { arr; via; atom; with_len; max_len = _ } ->
      let n = fresh "n" in
      let p = fresh "p" in
      let i = fresh "i" in
      let size = atom.Mplan.size in
      let elem = Eindex (buf_expr ~vars arr via, Eid i) in
      let loop =
        Sfor
          ( Some (Eassign (Eid i, num 0)),
            Some (Ebinop (Lt, Eid i, Eid n)),
            Some (Eassign_op (Add, Eid i, num 1)),
            [
              Sexpr
                (call (store_macro ~be atom)
                   [
                     Ebinop (Add, Eid p, Ebinop (Mul, Eid i, num size)); elem;
                   ]);
            ] )
      in
      let body =
        (* the memcpy optimization applies exactly when the presented and
           encoded layouts agree (section 3.2) *)
        if size = 4 && (match atom.Mplan.kind with Encoding.Kint _ -> true | _ -> false)
        then
          [
            Sraw
              (Printf.sprintf "#if %s"
                 (if be then "defined(FLICK_HOST_BIG_ENDIAN)"
                  else "!defined(FLICK_HOST_BIG_ENDIAN)"));
            Sexpr (call "memcpy" [ Eid p; buf_expr ~vars arr via; Ebinop (Mul, Eid n, num size) ]);
            Sraw "#else";
            Sdecl (i, uint32_t, None);
            loop;
            Sraw "#endif";
          ]
        else [ Sdecl (i, uint32_t, None); loop ]
      in
      [
        Sblock
          ([ Sdecl (n, uint32_t, Some (len_expr ~vars arr via)) ]
          @ (if with_len then
               [ Sexpr (call "flick_put_u32" [ Eid "_buf"; Eid n; bee ]) ]
             else [])
          @ [
              Sif
                ( Ebinop (Gt, Eid n, num 0),
                  [
                    Sexpr (call "flick_align" [ Eid "_buf"; num atom.Mplan.align ]);
                    Sexpr
                      (call "flick_ensure"
                         [ Eid "_buf"; Ebinop (Mul, Eid n, num size) ]);
                    Sdecl (p, Tptr Tchar, Some (call "flick_ptr" [ Eid "_buf" ]));
                  ]
                  @ body
                  @ [
                      Sexpr
                        (call "flick_advance"
                           [ Eid "_buf"; Ebinop (Mul, Eid n, num size) ]);
                    ],
                  [] );
            ]);
      ]
  | Mplan.Put_len { arr; via; max_len = _ } ->
      [ Sexpr (call "flick_put_u32" [ Eid "_buf"; len_expr ~vars arr via; bee ]) ]
  | Mplan.Loop { arr; via; var; body } ->
      let i = fresh "i" in
      let elem =
        match via with
        | Mplan.Via_opt -> Eunop (Deref, expr_of_rv ~vars arr)
        | Mplan.Via_seq _ | Mplan.Via_string | Mplan.Via_fixed _ ->
            Eindex (buf_expr ~vars arr via, Eid i)
      in
      let vars' j = if j = var then elem else vars j in
      let inner = List.concat_map (marshal_op ~enc ~vars:vars') body in
      (match via with
      | Mplan.Via_opt ->
          [ Sif (expr_of_rv ~vars arr, inner, []) ]
      | Mplan.Via_seq _ | Mplan.Via_string | Mplan.Via_fixed _ ->
          [
            Sblock
              [
                Sdecl (i, uint32_t, None);
                Sfor
                  ( Some (Eassign (Eid i, num 0)),
                    Some (Ebinop (Lt, Eid i, len_expr ~vars arr via)),
                    Some (Eassign_op (Add, Eid i, num 1)),
                    inner );
              ];
          ])
  | Mplan.Switch { u; discrim_atom; arms; default; discrim_field; union_field = _ }
    -> (
      match discrim_atom with
      | Some _ ->
          let scrutinee = Efield (expr_of_rv ~vars u, discrim_field) in
          let const_expr (c : Mint.const) =
            match c with
            | Mint.Cint n -> Eint n
            | Mint.Cbool b -> num (if b then 1 else 0)
            | Mint.Cchar ch -> Echar ch
            | Mint.Cstring _ -> invalid_arg "Cgen: string label in C switch"
          in
          let cases =
            List.map
              (fun (a : Mplan.arm) ->
                {
                  sc_labels = [ const_expr a.Mplan.a_const ];
                  sc_body = List.concat_map (marshal_op ~enc ~vars) a.Mplan.a_body;
                })
              arms
            @
            match default with
            | None ->
                [
                  {
                    sc_labels = [];
                    sc_body =
                      [ Sexpr (call "flick_fail" [ Estr "bad discriminator" ]) ];
                  };
                ]
            | Some (_, body) ->
                [
                  {
                    sc_labels = [];
                    sc_body = List.concat_map (marshal_op ~enc ~vars) body;
                  };
                ]
          in
          [ Sswitch (scrutinee, cases) ]
      | None ->
          (* string-keyed unions are dispatched per stub; a data union
             with string keys cannot be presented in C *)
          [ Sexpr (call "flick_fail" [ Estr "string-keyed data union" ]) ])
  | Mplan.Put_varhead _ ->
      (* value-dependent headers only appear in plans for self-describing
         encodings (msgpack/cbor), which the C back end does not target;
         the driver restricts C generation to fixed-layout encodings *)
      invalid_arg "Cgen: variable-width header in a C-targeted plan"
  | Mplan.Call (name, rv) ->
      [
        Sexpr
          (call ("flick_enc_" ^ name)
             [ Eid "_buf"; Eunop (Addr, expr_of_rv ~vars rv) ]);
      ]

let no_vars _ = invalid_arg "Cgen: unbound loop variable"

let marshal_stmts ~enc ops = List.concat_map (marshal_op ~enc ~vars:no_vars) ops

let marshal_sub_functions ~enc subs =
  List.map
    (fun (name, body) ->
      Dfun
        ( Static,
          "flick_enc_" ^ name,
          Tvoid,
          [ ("_buf", Tptr (Tnamed "flick_buf_t")); ("_v", Tptr (Tnamed name)) ],
          List.concat_map
            (marshal_op ~enc ~vars:no_vars)
            body ))
    subs

(* ------------------------------------------------------------------ *)
(* Unmarshal: (MINT, PRES) -> statements                                *)
(* ------------------------------------------------------------------ *)

let atom_of enc kind = Plan_compile.atom_of enc kind

let rec unmarshal ~(enc : Encoding.t) ~mint ~named ~(dest : expr) idx
    (pres : Pres.t) : stmt list =
  let be = enc.Encoding.big_endian in
  let def = Mint.get mint idx in
  let hdr =
    if enc.Encoding.typed_headers then
      [ Sexpr (call "flick_msg_skip_hdr" [ Eid "_msg" ]) ]
    else []
  in
  match (def, pres) with
  | _, Pres.Ref name ->
      [
        Sexpr
          (call ("flick_dec_" ^ name) [ Eid "_msg"; Eunop (Addr, dest) ]);
      ]
  | Mint.Void, _ -> []
  | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
      match Encoding.atom_of_mint def with
      | Some kind ->
          hdr @ [ Sexpr (Eassign (dest, load_call ~be (atom_of enc kind))) ]
      | None -> assert false)
  | Mint.Array { elem; min_len; max_len }, _ ->
      hdr @ unmarshal_array ~enc ~mint ~named ~dest ~elem ~min_len ~max_len pres
  | Mint.Struct fields, Pres.Struct arms ->
      List.concat
        (List.map2
           (fun (_, fidx) (member, sub) ->
             unmarshal ~enc ~mint ~named ~dest:(Efield (dest, member)) fidx sub)
           fields arms)
  | ( Mint.Union { discrim; cases; default },
      Pres.Union { discrim_field; union_field; arms; default_arm } ) -> (
      match Encoding.atom_of_mint (Mint.get mint discrim) with
      | Some kind ->
          let datom = atom_of enc kind in
          let dexpr = Efield (dest, discrim_field) in
          let const_expr (c : Mint.const) =
            match c with
            | Mint.Cint n -> Eint n
            | Mint.Cbool b -> num (if b then 1 else 0)
            | Mint.Cchar ch -> Echar ch
            | Mint.Cstring _ -> invalid_arg "Cgen: string label in C switch"
          in
          let arm_cases =
            List.map2
              (fun (c : Mint.case) (member, sub) ->
                {
                  sc_labels = [ const_expr c.Mint.c_const ];
                  sc_body =
                    (if member = "" then [ Scomment "void arm" ]
                     else
                       unmarshal ~enc ~mint ~named
                         ~dest:(Efield (Efield (dest, union_field), member))
                         c.Mint.c_body sub);
                })
              cases arms
          in
          let default_case =
            match (default, default_arm) with
            | Some didx, Some (member, sub) ->
                [
                  {
                    sc_labels = [];
                    sc_body =
                      (if member = "" then [ Scomment "void arm" ]
                       else
                         unmarshal ~enc ~mint ~named
                           ~dest:(Efield (Efield (dest, union_field), member))
                           didx sub);
                  };
                ]
            | _, _ ->
                [
                  {
                    sc_labels = [];
                    sc_body =
                      [ Sexpr (call "flick_fail" [ Estr "bad discriminator" ]) ];
                  };
                ]
          in
          hdr
          @ [
              Sexpr (Eassign (dexpr, load_call ~be datom));
              Sswitch (dexpr, arm_cases @ default_case);
            ]
      | None -> [ Sexpr (call "flick_fail" [ Estr "string-keyed data union" ]) ])
  | (Mint.Struct _ | Mint.Union _), _ ->
      invalid_arg "Cgen.unmarshal: PRES does not match MINT"

and unmarshal_array ~enc ~mint ~named ~dest ~elem ~min_len ~max_len
    (pres : Pres.t) : stmt list =
  let be = enc.Encoding.big_endian in
  let bee = if be then num 1 else num 0 in
  let pad = enc.Encoding.pad_unit in
  let bound_check n_expr =
    match max_len with
    | Some b ->
        [
          Sif
            ( Ebinop (Gt, n_expr, num b),
              [ Sexpr (call "flick_fail" [ Estr "length exceeds bound" ]) ],
              [] );
        ]
    | None -> []
  in
  match pres with
  | Pres.Terminated_string | Pres.Terminated_string_len _ ->
      let n = fresh "n" in
      [
        Sblock
          ([
             Sdecl
               (n, uint32_t, Some (call "flick_get_u32" [ Eid "_msg"; bee ]));
           ]
          @ (if enc.Encoding.string_nul then
               [
                 Sif
                   ( Ebinop (Eq, Eid n, num 0),
                     [ Sexpr (call "flick_fail" [ Estr "bad string length" ]) ],
                     [] );
               ]
             else [])
          @ bound_check
              (if enc.Encoding.string_nul then Ebinop (Sub, Eid n, num 1)
               else Eid n)
          @ [
              Sexpr
                (Eassign
                   ( dest,
                     Ecast (Tptr Tchar, call "flick_salloc" [ Ebinop (Add, Eid n, num 1) ]) ));
              Sexpr
                (call "flick_get_bytes"
                   [
                     Eid "_msg"; dest;
                     (if enc.Encoding.string_nul then Ebinop (Sub, Eid n, num 1)
                      else Eid n);
                   ]);
              Sexpr
                (Eassign
                   ( Eindex
                       ( dest,
                         if enc.Encoding.string_nul then Ebinop (Sub, Eid n, num 1)
                         else Eid n ),
                     num 0 ));
            ]
          @ (if enc.Encoding.string_nul then
               [ Sexpr (call "flick_msg_skip" [ Eid "_msg"; num 1 ]) ]
             else [])
          @ [ Sexpr (call "flick_msg_skip_pad" [ Eid "_msg"; Eid n; num pad ]) ]);
      ]
  | Pres.Fixed_array sub -> (
      match Mint.get mint elem with
      | Mint.Char8 | Mint.Int { bits = 8; _ } ->
          (* statically sized byte run: fold the trailing pad into the
             blit's single bounds check (decode mirror of Put_blit) *)
          let padded = Plan_compile.round_up min_len pad in
          [
            Sexpr
              (call "flick_get_blit"
                 [ Eid "_msg"; dest; num min_len; num (padded - min_len) ]);
          ]
      | _ ->
          let i = fresh "i" in
          let body =
            (* array elements carry no per-item descriptor of their own *)
            match Encoding.atom_of_mint (Mint.get mint elem) with
            | Some kind ->
                [
                  Sexpr
                    (Eassign
                       ( Eindex (dest, Eid i),
                         load_call ~be:enc.Encoding.big_endian (atom_of enc kind)
                       ));
                ]
            | None ->
                unmarshal ~enc ~mint ~named ~dest:(Eindex (dest, Eid i)) elem sub
          in
          [
            Sblock
              [
                Sdecl (i, uint32_t, None);
                Sfor
                  ( Some (Eassign (Eid i, num 0)),
                    Some (Ebinop (Lt, Eid i, num min_len)),
                    Some (Eassign_op (Add, Eid i, num 1)),
                    body );
              ];
          ])
  | Pres.Counted_seq { len_field; buf_field; elem = sub } -> (
      let n = fresh "n" in
      let buf_dest = Efield (dest, buf_field) in
      let common =
        [
          Sdecl (n, uint32_t, Some (call "flick_get_u32" [ Eid "_msg"; bee ]));
        ]
        @ bound_check (Eid n)
        @ [ Sexpr (Eassign (Efield (dest, len_field), Eid n)) ]
      in
      match Mint.get mint elem with
      | Mint.Char8 | Mint.Int { bits = 8; _ } ->
          [
            Sblock
              (common
              @ [
                  Sexpr
                    (Eassign
                       (buf_dest, call "flick_salloc" [ Econd (Eid n, Eid n, num 1) ]));
                  Sexpr (call "flick_get_bytes" [ Eid "_msg"; buf_dest; Eid n ]);
                  Sexpr (call "flick_msg_skip_pad" [ Eid "_msg"; Eid n; num pad ]);
                ]);
          ]
      | _ ->
          let i = fresh "i" in
          let body =
            match Encoding.atom_of_mint (Mint.get mint elem) with
            | Some kind ->
                [
                  Sexpr
                    (Eassign
                       ( Eindex (buf_dest, Eid i),
                         load_call ~be:enc.Encoding.big_endian (atom_of enc kind)
                       ));
                ]
            | None ->
                unmarshal ~enc ~mint ~named
                  ~dest:(Eindex (buf_dest, Eid i))
                  elem sub
          in
          [
            Sblock
              (common
              @ [
                  Sexpr
                    (Eassign
                       ( buf_dest,
                         call "flick_salloc"
                           [
                             Ebinop
                               ( Mul,
                                 Econd (Eid n, Eid n, num 1),
                                 Esizeof_expr (Eunop (Deref, buf_dest)) );
                           ] ));
                  Sdecl (i, uint32_t, None);
                  Sfor
                    ( Some (Eassign (Eid i, num 0)),
                      Some (Ebinop (Lt, Eid i, Eid n)),
                      Some (Eassign_op (Add, Eid i, num 1)),
                      body );
                ]);
          ])
  | Pres.Opt_ptr sub ->
      let n = fresh "n" in
      [
        Sblock
          ([
             Sdecl (n, uint32_t, Some (call "flick_get_u32" [ Eid "_msg"; bee ]));
             Sif
               ( Ebinop (Gt, Eid n, num 1),
                 [ Sexpr (call "flick_fail" [ Estr "bad optional count" ]) ],
                 [] );
             Sif
               ( Eid n,
                 [
                   Sexpr
                     (Eassign
                        ( dest,
                          call "flick_salloc"
                            [ Esizeof_expr (Eunop (Deref, dest)) ] ));
                 ]
                 @ unmarshal ~enc ~mint ~named ~dest:(Eunop (Deref, dest)) elem
                     sub,
                 [ Sexpr (Eassign (dest, num 0)) ] );
           ]);
      ]
  | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _ | Pres.Void
  | Pres.Ref _ ->
      invalid_arg "Cgen.unmarshal_array: PRES mismatch"

let unmarshal_stmts ~enc ~mint ~named ~dest idx pres =
  unmarshal ~enc ~mint ~named ~dest idx pres

let unmarshal_sub_functions ~enc ~mint ~named =
  List.map
    (fun (name, (idx, pres)) ->
      Dfun
        ( Static,
          "flick_dec_" ^ name,
          Tvoid,
          [ ("_msg", Tptr (Tnamed "flick_msg_t")); ("_v", Tptr (Tnamed name)) ],
          unmarshal ~enc ~mint ~named ~dest:(Eunop (Deref, Eid "_v")) idx pres ))
    named
