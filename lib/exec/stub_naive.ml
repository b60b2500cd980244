type config = { per_char_strings : bool; per_elem_arrays : bool }

let default_config = { per_char_strings = true; per_elem_arrays = true }

(* Per-call latency/size histograms, same shape as Stub_opt's so
   [flick stats] shows the engines side by side. *)
let encode_ns = Obs.hist "stub_naive.encode_ns"
let encode_bytes = Obs.hist "stub_naive.encode_bytes"
let decode_ns = Obs.hist "stub_naive.decode_ns"
let decode_bytes = Obs.hist "stub_naive.decode_bytes"

let array_length (v : Value.t) =
  match v with
  | Value.Vstring s -> String.length s
  | Value.Vbytes b -> Bytes.length b
  | Value.Vint_array a -> Array.length a
  | Value.Varray a -> Array.length a
  | Value.Vint_rows { shape; ints } -> Array.length ints / max 1 (Value.row_width shape)
  | Value.Vopt None -> 0
  | Value.Vopt (Some _) -> 1
  | _ -> invalid_arg "Stub_naive.array_length"

(* ------------------------------------------------------------------ *)
(* Encoding: one closure and one checked append per datum               *)
(* ------------------------------------------------------------------ *)

let compile_value_encoder cfg (enc : Encoding.t) mint named :
    Mint.idx -> Pres.t -> Mbuf.t -> Value.t -> unit =
  let be = enc.Encoding.big_endian in
  let vc = enc.Encoding.var in
  let atom_of kind = Plan_compile.atom_of enc kind in
  let len_align = enc.Encoding.len_prefix.Encoding.align in
  let hdr buf =
    if enc.Encoding.typed_headers then begin
      Mbuf.align buf 4;
      Mbuf.put_i32 buf ~be (Int64.to_int 0x4D544450L)
    end
  in
  (* counts carry their container kind under a value-dependent encoding
     (string/bytes/array heads differ); fixed encodings ignore it *)
  let put_len_k lk buf n =
    match vc with
    | Some vcc -> Codec.write_vlen vcc ~check:true lk buf n
    | None ->
        Mbuf.align buf len_align;
        Mbuf.put_i32 buf ~be n
  in
  let put_len = put_len_k Encoding.Larr in
  let put_scalar kind : Mbuf.t -> Value.t -> unit =
    match vc with
    | Some vcc -> fun buf v -> Codec.write_var vcc ~check:true kind buf v
    | None ->
        let atom = atom_of kind in
        fun buf v -> Codec.write_stream buf ~be atom v
  in
  let put_pad buf n =
    (* traditional stubs emit pad bytes one at a time too *)
    for _ = 1 to n do
      Mbuf.put_u8 buf 0
    done
  in
  let put_string_body buf s data_len =
    let slen = String.length s in
    if cfg.per_char_strings then begin
      for i = 0 to slen - 1 do
        Mbuf.put_u8 buf (Char.code (String.unsafe_get s i))
      done;
      put_pad buf (data_len - slen)
    end
    else begin
      Mbuf.ensure buf data_len;
      Mbuf.set_string buf 0 s 0 slen;
      Mbuf.fill_zero buf slen (data_len - slen);
      Mbuf.advance buf data_len
    end
  in
  let subs : (string, (Mbuf.t -> Value.t -> unit) ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let rec enc_val idx (pres : Pres.t) : Mbuf.t -> Value.t -> unit =
    let def = Mint.get mint idx in
    match (def, pres) with
    | _, Pres.Ref name -> (
        match Hashtbl.find_opt subs name with
        | Some cell -> fun buf v -> !cell buf v
        | None -> (
            match List.assoc_opt name named with
            | None -> invalid_arg ("Stub_naive: unknown presentation " ^ name)
            | Some (sidx, spres) ->
                let cell = ref (fun _ _ -> ()) in
                Hashtbl.add subs name cell;
                let f = enc_val sidx spres in
                cell := f;
                fun buf v -> !cell buf v))
    | Mint.Void, _ -> fun _ _ -> ()
    | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
        match Encoding.atom_of_mint def with
        | Some kind ->
            let put = put_scalar kind in
            fun buf v ->
              hdr buf;
              put buf v
        | None -> assert false)
    | Mint.Array { elem; min_len; max_len }, _ ->
        enc_array ~elem ~min_len ~max_len pres
    | Mint.Struct fields, Pres.Struct arms ->
        let fns =
          Array.of_list
            (List.map2 (fun (_, fidx) (_, sub) -> enc_val fidx sub) fields arms)
        in
        fun buf v ->
          let a = match v with
            | Value.Vstruct a -> a
            | _ -> invalid_arg "Stub_naive: expected a struct"
          in
          for i = 0 to Array.length fns - 1 do
            fns.(i) buf a.(i)
          done
    | ( Mint.Union { discrim; cases; default },
        Pres.Union { arms; default_arm; _ } ) ->
        let datom = Encoding.atom_of_mint (Mint.get mint discrim) in
        let arm_fns =
          List.map2
            (fun (c : Mint.case) (_, sub) -> enc_val c.Mint.c_body sub)
            cases arms
          |> Array.of_list
        in
        let default_fn =
          match (default, default_arm) with
          | Some didx, Some (_, sub) -> Some (enc_val didx sub)
          | None, None -> None
          | _, _ -> invalid_arg "Stub_naive: PRES/MINT default mismatch"
        in
        fun buf v ->
          (match v with
          | Value.Vunion u ->
              hdr buf;
              (match datom with
              | Some kind ->
                  put_scalar kind buf (Codec.const_to_value u.discrim)
              | None -> (
                  match u.discrim with
                  | Mint.Cstring key ->
                      let data =
                        String.length key
                        + if enc.Encoding.string_nul then 1 else 0
                      in
                      let padded =
                        (data + enc.Encoding.pad_unit - 1)
                        / enc.Encoding.pad_unit * enc.Encoding.pad_unit
                      in
                      put_len_k Encoding.Lstr buf data;
                      put_string_body buf key data;
                      put_pad buf (padded - data)
                  | Mint.Cint _ | Mint.Cbool _ | Mint.Cchar _ ->
                      invalid_arg "Stub_naive: non-string key"));
              if u.case >= 0 then arm_fns.(u.case) buf u.payload
              else (
                match default_fn with
                | Some f -> f buf u.payload
                | None -> invalid_arg "Stub_naive: default without default arm")
          | _ -> invalid_arg "Stub_naive: expected a union")
    | (Mint.Struct _ | Mint.Union _), _ ->
        invalid_arg "Stub_naive: PRES does not match MINT"
  and enc_array ~elem ~min_len ~max_len (pres : Pres.t) =
    let pad_unit = enc.Encoding.pad_unit in
    match pres with
    | Pres.Terminated_string | Pres.Terminated_string_len _ ->
        fun buf v ->
          let s = match v with
            | Value.Vstring s -> s
            | _ -> invalid_arg "Stub_naive: expected a string"
          in
          Codec.check_max ~what:"string" (String.length s) max_len;
          hdr buf;
          let data = String.length s + if enc.Encoding.string_nul then 1 else 0 in
          let padded = (data + pad_unit - 1) / pad_unit * pad_unit in
          put_len_k Encoding.Lstr buf data;
          put_string_body buf s data;
          put_pad buf (padded - data)
    | Pres.Opt_ptr sub ->
        let f = enc_val elem sub in
        fun buf v ->
          hdr buf;
          (match v with
          | Value.Vopt None -> put_len buf 0
          | Value.Vopt (Some p) ->
              put_len buf 1;
              f buf p
          | _ -> invalid_arg "Stub_naive: expected an optional")
    | Pres.Fixed_array sub -> (
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun buf v ->
              hdr buf;
              let b = match v with
                | Value.Vbytes b -> b
                | _ -> invalid_arg "Stub_naive: expected bytes"
              in
              let len = Bytes.length b in
              if len <> min_len then
                invalid_arg "Stub_naive: fixed array length mismatch";
              let padded = (len + pad_unit - 1) / pad_unit * pad_unit in
              if cfg.per_char_strings then begin
                for i = 0 to len - 1 do
                  Mbuf.put_u8 buf (Char.code (Bytes.unsafe_get b i))
                done;
                put_pad buf (padded - len)
              end
              else begin
                Mbuf.ensure buf padded;
                Mbuf.set_bytes buf 0 b 0 len;
                Mbuf.fill_zero buf len (padded - len);
                Mbuf.advance buf padded
              end
        | Mint.Int { bits; _ }
          when bits = 32 && not cfg.per_elem_arrays && enc.Encoding.var = None ->
            (* ablation: the single-reservation tight loop of section 3.1 *)
            let atom = atom_of (Encoding.Kint { bits; signed = true }) in
            tight_int_loop atom ~with_len:false
        | _ ->
            let f = elem_encoder elem sub in
            fun buf v ->
              hdr buf;
              elements f buf v)
    | Pres.Counted_seq { elem = sub; _ } -> (
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun buf v ->
              hdr buf;
              let b = match v with
                | Value.Vbytes b -> b
                | _ -> invalid_arg "Stub_naive: expected bytes"
              in
              let len = Bytes.length b in
              Codec.check_max ~what:"sequence" len max_len;
              let padded = (len + pad_unit - 1) / pad_unit * pad_unit in
              put_len_k Encoding.Lbin buf len;
              if cfg.per_char_strings then begin
                for i = 0 to len - 1 do
                  Mbuf.put_u8 buf (Char.code (Bytes.unsafe_get b i))
                done;
                put_pad buf (padded - len)
              end
              else begin
                Mbuf.ensure buf padded;
                Mbuf.set_bytes buf 0 b 0 len;
                Mbuf.fill_zero buf len (padded - len);
                Mbuf.advance buf padded
              end
        | Mint.Int { bits; _ }
          when bits = 32 && not cfg.per_elem_arrays && enc.Encoding.var = None ->
            let atom = atom_of (Encoding.Kint { bits; signed = true }) in
            let loop = tight_int_loop atom ~with_len:true in
            fun buf v ->
              Codec.check_max ~what:"sequence" (array_length v) max_len;
              loop buf v
        | _ ->
            let f = elem_encoder elem sub in
            fun buf v ->
              Codec.check_max ~what:"sequence" (array_length v) max_len;
              hdr buf;
              put_len buf (array_length v);
              elements f buf v)
    | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _
    | Pres.Void | Pres.Ref _ ->
        invalid_arg "Stub_naive: array PRES mismatch"
  (* array elements carry no Mach descriptor of their own: one
     descriptor covers the whole run *)
  and elem_encoder elem sub =
    match Encoding.atom_of_mint (Mint.get mint elem) with
    | Some kind -> put_scalar kind
    | None -> enc_val elem sub
  and tight_int_loop atom ~with_len buf v =
    match v with
    | Value.Vint_array a ->
        hdr buf;
        let n = Array.length a in
        if with_len then put_len buf n;
        Mbuf.align buf atom.Mplan.align;
        Mbuf.ensure buf (n * atom.Mplan.size);
        (if enc.Encoding.big_endian then
           for i = 0 to n - 1 do
             Mbuf.set_i32_be buf (i * 4) (Array.unsafe_get a i)
           done
         else
           for i = 0 to n - 1 do
             Mbuf.set_i32_le buf (i * 4) (Array.unsafe_get a i)
           done);
        Mbuf.advance buf (n * atom.Mplan.size)
    | _ -> invalid_arg "Stub_naive: expected an int array"
  and elements f buf (v : Value.t) =
    (* one closure invocation per element: the traditional shape *)
    match v with
    | Value.Vint_rows _ -> elements f buf (Value.boxed v)
    | Value.Vint_array a ->
        for i = 0 to Array.length a - 1 do
          f buf (Value.Vint (Array.unsafe_get a i))
        done
    | Value.Varray a ->
        for i = 0 to Array.length a - 1 do
          f buf (Array.unsafe_get a i)
        done
    | _ -> invalid_arg "Stub_naive: expected an array"
  in
  fun idx pres -> enc_val idx pres

let compile_encoder ?(config = default_config) ~enc ~mint ~named roots :
    Stub_opt.encoder =
  let be = enc.Encoding.big_endian in
  let enc_val = compile_value_encoder config enc mint named in
  let atom_of kind = Plan_compile.atom_of enc kind in
  let hdr buf =
    if enc.Encoding.typed_headers then begin
      Mbuf.align buf 4;
      Mbuf.put_i32 buf ~be (Int64.to_int 0x4D544450L)
    end
  in
  let steps =
    List.map
      (fun (root : Plan_compile.root) ->
        match root with
        | Plan_compile.Rconst_int (value, kind) -> (
            match enc.Encoding.var with
            | Some vcc ->
                `Const
                  (fun buf ->
                    Codec.write_var vcc ~check:true kind buf (Value.Vint64 value))
            | None ->
                let atom = atom_of kind in
                `Const
                  (fun buf ->
                    hdr buf;
                    Codec.write_stream buf ~be atom
                      (Value.Vint (Int64.to_int value))))
        | Plan_compile.Rconst_str s ->
            let data = String.length s + if enc.Encoding.string_nul then 1 else 0 in
            let padded =
              (data + enc.Encoding.pad_unit - 1)
              / enc.Encoding.pad_unit * enc.Encoding.pad_unit
            in
            `Const
              (match enc.Encoding.var with
              | Some vcc ->
                  fun buf ->
                    Codec.write_vlen vcc ~check:true Encoding.Lstr buf
                      (String.length s);
                    String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) s
              | None ->
                  fun buf ->
                    hdr buf;
                    Mbuf.align buf enc.Encoding.len_prefix.Encoding.align;
                    Mbuf.put_i32 buf ~be data;
                    String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) s;
                    for _ = 1 to padded - String.length s do
                      Mbuf.put_u8 buf 0
                    done)
        | Plan_compile.Rvalue (rv, idx, pres) ->
            let index =
              match rv with
              | Mplan.Rparam { index; _ } -> index
              | _ -> invalid_arg "Stub_naive: roots must be parameters"
            in
            let f = enc_val idx pres in
            `Param (index, f))
      roots
  in
  Stub_opt.instrument_encoder encode_ns encode_bytes (fun buf params ->
      List.iter
        (fun step ->
          match step with
          | `Const f -> f buf
          | `Param (i, f) -> f buf params.(i))
        steps)

(* ------------------------------------------------------------------ *)
(* Decoding: one closure and one checked read per datum                 *)
(* ------------------------------------------------------------------ *)

let compile_value_decoder cfg (enc : Encoding.t) mint named :
    Mint.idx -> Pres.t -> Mbuf.reader -> Value.t =
  let be = enc.Encoding.big_endian in
  let atom_of kind = Plan_compile.atom_of enc kind in
  let hdr r =
    if enc.Encoding.typed_headers then begin
      Mbuf.ralign r 4;
      Mbuf.skip r 4
    end
  in
  (* length/bounds/padding come from the shared Codec helpers, the same
     ones the optimized engine runs — one definition of the wire rules *)
  let vc = enc.Encoding.var in
  let read_len_k lk r =
    match vc with
    | Some vcc -> Codec.read_vlen vcc lk r
    | None ->
        Codec.read_len r ~be ~align:enc.Encoding.len_prefix.Encoding.align
  in
  let read_len = read_len_k Encoding.Larr in
  let read_scalar kind : Mbuf.reader -> Value.t =
    match vc with
    | Some vcc -> fun r -> Codec.read_var vcc kind r
    | None ->
        let atom = atom_of kind in
        fun r -> Codec.read_stream r ~be atom
  in
  let read_string_body r data_len =
    if cfg.per_char_strings then begin
      let b = Bytes.create data_len in
      for i = 0 to data_len - 1 do
        Bytes.unsafe_set b i (Char.chr (Mbuf.read_u8 r))
      done;
      b
    end
    else Mbuf.read_bytes r data_len
  in
  let check_max what n max_len =
    Codec.check_bounds ~what n ~min_len:0 ~max_len
  in
  let subs : (string, (Mbuf.reader -> Value.t) ref) Hashtbl.t = Hashtbl.create 4 in
  let rec dec idx (pres : Pres.t) : Mbuf.reader -> Value.t =
    let def = Mint.get mint idx in
    match (def, pres) with
    | _, Pres.Ref name -> (
        match Hashtbl.find_opt subs name with
        | Some cell -> fun r -> !cell r
        | None -> (
            match List.assoc_opt name named with
            | None -> invalid_arg ("Stub_naive: unknown presentation " ^ name)
            | Some (sidx, spres) ->
                let cell = ref (fun _ -> Value.Vvoid) in
                Hashtbl.add subs name cell;
                let d = dec sidx spres in
                cell := d;
                fun r -> !cell r))
    | Mint.Void, _ -> fun _ -> Value.Vvoid
    | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
        match Encoding.atom_of_mint def with
        | Some kind ->
            let get = read_scalar kind in
            fun r ->
              hdr r;
              get r
        | None -> assert false)
    | Mint.Array { elem; min_len; max_len }, _ ->
        dec_array ~elem ~min_len ~max_len pres
    | Mint.Struct fields, Pres.Struct arms ->
        let decs =
          Array.of_list
            (List.map2 (fun (_, fidx) (_, sub) -> dec fidx sub) fields arms)
        in
        fun r ->
          let n = Array.length decs in
          let out = Array.make n Value.Vvoid in
          for i = 0 to n - 1 do
            out.(i) <- decs.(i) r
          done;
          Value.Vstruct out
    | ( Mint.Union { discrim; cases; default },
        Pres.Union { arms; default_arm; _ } ) ->
        let datom = Encoding.atom_of_mint (Mint.get mint discrim) in
        (* linear compare chain: the traditional dispatch shape *)
        let arm_list =
          List.map2
            (fun (i, (c : Mint.case)) (_, sub) ->
              (c.Mint.c_const, i, dec c.Mint.c_body sub))
            (List.mapi (fun i c -> (i, c)) cases)
            arms
        in
        let default_dec =
          match (default, default_arm) with
          | Some didx, Some (_, sub) -> Some (dec didx sub)
          | None, None -> None
          | _, _ -> invalid_arg "Stub_naive: PRES/MINT default mismatch"
        in
        fun r ->
          hdr r;
          let const : Mint.const =
            match datom with
            | Some kind -> (
                match read_scalar kind r with
                | Value.Vint n -> Mint.Cint (Int64.of_int n)
                | Value.Vbool b -> Mint.Cbool b
                | Value.Vchar c -> Mint.Cchar c
                | _ -> raise (Codec.Decode_error "bad discriminator"))
            | None ->
                let wire_len = read_len_k Encoding.Lstr r in
                let data_len =
                  if enc.Encoding.string_nul then wire_len - 1 else wire_len
                in
                if data_len < 0 then raise (Codec.Decode_error "bad key length");
                let key = Bytes.to_string (read_string_body r data_len) in
                if enc.Encoding.string_nul then Mbuf.skip r 1;
                Codec.skip_pad r ~pad_unit:enc.Encoding.pad_unit wire_len;
                Mint.Cstring key
          in
          let rec find = function
            | [] -> (
                match default_dec with
                | Some d ->
                    Value.Vunion { case = -1; discrim = const; payload = d r }
                | None ->
                    raise
                      (Codec.Decode_error
                         (Format.asprintf "unknown discriminator %a"
                            Mint.pp_const const)))
            | (c, i, d) :: rest ->
                if Mint.equal_const c const then
                  Value.Vunion { case = i; discrim = const; payload = d r }
                else find rest
          in
          find arm_list
    | (Mint.Struct _ | Mint.Union _), _ ->
        invalid_arg "Stub_naive: PRES does not match MINT"
  and dec_array ~elem ~min_len ~max_len (pres : Pres.t) =
    let pad_unit = enc.Encoding.pad_unit in
    let skip_pad r n = Codec.skip_pad r ~pad_unit n in
    match pres with
    | Pres.Terminated_string | Pres.Terminated_string_len _ ->
        fun r ->
          hdr r;
          let wire_len = read_len_k Encoding.Lstr r in
          let data_len =
            if enc.Encoding.string_nul then wire_len - 1 else wire_len
          in
          if data_len < 0 then raise (Codec.Decode_error "bad string length");
          check_max "string" data_len max_len;
          let b = read_string_body r data_len in
          if enc.Encoding.string_nul then Mbuf.skip r 1;
          skip_pad r wire_len;
          Value.Vstring (Bytes.to_string b)
    | Pres.Opt_ptr sub -> (
        let d = dec elem sub in
        fun r ->
          hdr r;
          Mbuf.ralign r enc.Encoding.len_prefix.Encoding.align;
          let at = Mbuf.rpos r in
          match read_len r with
          | 0 -> Value.Vopt None
          | 1 -> Value.Vopt (Some (d r))
          | n ->
              raise
                (Codec.Decode_error
                   (Printf.sprintf "optional count %d at byte %d" n at)))
    | Pres.Fixed_array sub -> (
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun r ->
              hdr r;
              let b = read_string_body r min_len in
              skip_pad r min_len;
              Value.Vbytes b
        | _ ->
            let d = elem_decoder elem sub in
            let as_int_array =
              match Mint.get mint elem with
              | Mint.Int { bits; _ } when bits <= 32 -> true
              | _ -> false
            in
            let min_elem = elem_min elem sub in
            fun r ->
              hdr r;
              decode_elements d r min_len ~min_elem as_int_array)
    | Pres.Counted_seq { elem = sub; _ } -> (
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun r ->
              hdr r;
              let n = read_len_k Encoding.Lbin r in
              check_max "sequence" n max_len;
              let b = read_string_body r n in
              skip_pad r n;
              Value.Vbytes b
        | _ ->
            let d = elem_decoder elem sub in
            let as_int_array =
              match Mint.get mint elem with
              | Mint.Int { bits; _ } when bits <= 32 -> true
              | _ -> false
            in
            let min_elem = elem_min elem sub in
            fun r ->
              hdr r;
              let n = read_len r in
              check_max "sequence" n max_len;
              decode_elements d r n ~min_elem as_int_array)
    | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _
    | Pres.Void | Pres.Ref _ ->
        invalid_arg "Stub_naive: array PRES mismatch"
  and elem_decoder elem sub =
    (* array elements carry no Mach descriptor of their own *)
    match Encoding.atom_of_mint (Mint.get mint elem) with
    | Some kind -> read_scalar kind
    | None -> dec elem sub
  (* the fewest wire bytes one element takes, so a hostile count fails
     before its array is allocated; a scalar element has no descriptor *)
  and elem_min elem sub =
    match Encoding.atom_of_mint (Mint.get mint elem) with
    | Some kind when enc.Encoding.typed_headers -> (atom_of kind).Mplan.size
    | _ -> (Plan_compile.size ~enc ~mint ~named elem sub).Plan_compile.min
  and decode_elements d r n ~min_elem as_int_array =
    Codec.need_elems r n ~min_elem;
    if as_int_array then begin
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        out.(i) <- Codec.as_int (d r)
      done;
      Value.Vint_array out
    end
    else begin
      let out = Array.make n Value.Vvoid in
      for i = 0 to n - 1 do
        out.(i) <- d r
      done;
      Value.Varray out
    end
  in
  fun idx pres -> dec idx pres

let compile_decoder ?(config = default_config) ~enc ~mint ~named droots :
    Stub_opt.decoder =
  let be = enc.Encoding.big_endian in
  let dec_val = compile_value_decoder config enc mint named in
  let atom_of kind = Plan_compile.atom_of enc kind in
  let hdr r =
    if enc.Encoding.typed_headers then begin
      Mbuf.ralign r 4;
      Mbuf.skip r 4
    end
  in
  let steps =
    List.map
      (fun (droot : Stub_opt.droot) ->
        match droot with
        | Stub_opt.Dconst_int (expect, kind) ->
            let get =
              match enc.Encoding.var with
              | Some vcc -> fun r -> Codec.read_var vcc kind r
              | None ->
                  let atom = atom_of kind in
                  fun r -> Codec.read_stream r ~be atom
            in
            `Skip
              (fun r ->
                hdr r;
                let got =
                  match get r with
                  | Value.Vint n -> Int64.of_int n
                  | Value.Vint64 n -> n
                  | Value.Vbool b -> if b then 1L else 0L
                  | Value.Vchar c -> Int64.of_int (Char.code c)
                  | _ -> raise (Codec.Decode_error "bad constant")
                in
                if got <> expect then
                  raise (Codec.Decode_error "constant mismatch"))
        | Stub_opt.Dconst_str expect when enc.Encoding.var <> None ->
            let vcc = Option.get enc.Encoding.var in
            `Skip
              (fun r ->
                hdr r;
                let n = Codec.read_vlen vcc Encoding.Lstr r in
                let key = Mbuf.read_string r n in
                if key <> expect then
                  raise (Codec.Decode_error "operation key mismatch"))
        | Stub_opt.Dconst_str expect ->
            `Skip
              (fun r ->
                hdr r;
                Mbuf.ralign r enc.Encoding.len_prefix.Encoding.align;
                let wire_len = Mbuf.read_i32 r ~be in
                let data_len =
                  if enc.Encoding.string_nul then wire_len - 1 else wire_len
                in
                if data_len < 0 then raise (Codec.Decode_error "bad key length");
                let key = Mbuf.read_string r data_len in
                if enc.Encoding.string_nul then Mbuf.skip r 1;
                let padded =
                  (wire_len + enc.Encoding.pad_unit - 1)
                  / enc.Encoding.pad_unit * enc.Encoding.pad_unit
                in
                if padded > wire_len then Mbuf.skip r (padded - wire_len);
                if key <> expect then
                  raise (Codec.Decode_error "operation key mismatch"))
        | Stub_opt.Dvalue (idx, pres) -> `Value (dec_val idx pres))
      droots
  in
  Stub_opt.instrument_decoder decode_ns decode_bytes (fun r ->
      let out = ref [] in
      List.iter
        (fun step ->
          match step with `Skip f -> f r | `Value d -> out := d r :: !out)
        steps;
      Array.of_list (List.rev !out))
