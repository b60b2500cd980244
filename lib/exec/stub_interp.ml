(* Every operation below re-examines the MINT graph and the PRES tree
   at marshal time — the defining cost of interpretive marshaling. *)

let round_up n unit = (n + unit - 1) / unit * unit

let rec encode ~(enc : Encoding.t) ~mint ~named idx (pres : Pres.t) buf
    (v : Value.t) =
  let be = enc.Encoding.big_endian in
  let hdr () =
    if enc.Encoding.typed_headers then begin
      Mbuf.align buf 4;
      Mbuf.put_i32 buf ~be (Int64.to_int 0x4D544450L)
    end
  in
  let put_len_k lk n =
    match enc.Encoding.var with
    | Some vcc -> Codec.write_vlen vcc ~check:true lk buf n
    | None ->
        Mbuf.align buf enc.Encoding.len_prefix.Encoding.align;
        Mbuf.put_i32 buf ~be n
  in
  let put_len n = put_len_k Encoding.Larr n in
  let put_scalar kind v =
    match enc.Encoding.var with
    | Some vcc -> Codec.write_var vcc ~check:true kind buf v
    | None -> Codec.write_stream buf ~be (Plan_compile.atom_of enc kind) v
  in
  let def = Mint.get mint idx in
  match (def, pres) with
  | _, Pres.Ref name -> (
      (* table lookup at every reference, every time *)
      match List.assoc_opt name named with
      | None -> invalid_arg ("Stub_interp: unknown presentation " ^ name)
      | Some (sidx, spres) -> encode ~enc ~mint ~named sidx spres buf v)
  | Mint.Void, _ -> ()
  | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
      match Encoding.atom_of_mint def with
      | Some kind ->
          hdr ();
          put_scalar kind v
      | None -> assert false)
  | Mint.Array { elem; min_len; max_len }, _ -> (
      let pad_unit = enc.Encoding.pad_unit in
      match pres with
      | Pres.Terminated_string | Pres.Terminated_string_len _ -> (
          match v with
          | Value.Vstring s ->
              Codec.check_max ~what:"string" (String.length s) max_len;
              hdr ();
              let data =
                String.length s + if enc.Encoding.string_nul then 1 else 0
              in
              put_len_k Encoding.Lstr data;
              String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) s;
              for _ = 1 to round_up data pad_unit - String.length s do
                Mbuf.put_u8 buf 0
              done
          | _ -> invalid_arg "Stub_interp: expected a string")
      | Pres.Opt_ptr sub -> (
          hdr ();
          match v with
          | Value.Vopt None -> put_len 0
          | Value.Vopt (Some p) ->
              put_len 1;
              encode ~enc ~mint ~named elem sub buf p
          | _ -> invalid_arg "Stub_interp: expected an optional")
      | Pres.Fixed_array sub | Pres.Counted_seq { elem = sub; _ } -> (
          let counted =
            match pres with Pres.Counted_seq _ -> true | _ -> false
          in
          if not counted then Codec.check_fixed (Value.length v) min_len;
          match (Mint.get mint elem, v) with
          | (Mint.Char8 | Mint.Int { bits = 8; _ }), Value.Vbytes b ->
              let len = Bytes.length b in
              if counted then Codec.check_max ~what:"sequence" len max_len;
              hdr ();
              if counted then put_len_k Encoding.Lbin len;
              Bytes.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) b;
              for _ = 1 to round_up len pad_unit - len do
                Mbuf.put_u8 buf 0
              done
          | _, Value.Vint_array a ->
              if counted then Codec.check_max ~what:"sequence" (Array.length a) max_len;
              hdr ();
              if counted then put_len (Array.length a);
              let kind =
                match Encoding.atom_of_mint (Mint.get mint elem) with
                | Some kind -> kind
                | None -> invalid_arg "Stub_interp: int array of aggregates"
              in
              Array.iter (fun x -> put_scalar kind (Value.Vint x)) a
          | _, Value.Vint_rows _ ->
              encode ~enc ~mint ~named idx pres buf (Value.boxed v)
          | _, Value.Varray a -> (
              if counted then Codec.check_max ~what:"sequence" (Array.length a) max_len;
              hdr ();
              if counted then put_len (Array.length a);
              (* one descriptor covers the whole run: atomic elements do
                 not repeat it *)
              match Encoding.atom_of_mint (Mint.get mint elem) with
              | Some kind -> Array.iter (fun e -> put_scalar kind e) a
              | None ->
                  Array.iter (fun e -> encode ~enc ~mint ~named elem sub buf e) a)
          | _, _ -> invalid_arg "Stub_interp: expected an array")
      | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _
      | Pres.Void | Pres.Ref _ ->
          invalid_arg "Stub_interp: array PRES mismatch")
  | Mint.Struct fields, Pres.Struct arms -> (
      match v with
      | Value.Vstruct a ->
          List.iteri
            (fun i ((_, fidx), (_, sub)) ->
              encode ~enc ~mint ~named fidx sub buf a.(i))
            (List.combine fields arms)
      | _ -> invalid_arg "Stub_interp: expected a struct")
  | ( Mint.Union { discrim; cases; default },
      Pres.Union { arms; default_arm; _ } ) -> (
      match v with
      | Value.Vunion u -> (
          Codec.check_union
            (Array.of_list (List.map (fun (c : Mint.case) -> c.Mint.c_const) cases))
            ~default:(default <> None) ~case:u.case u.discrim;
          hdr ();
          (match Encoding.atom_of_mint (Mint.get mint discrim) with
          | Some kind -> put_scalar kind (Codec.const_to_value u.discrim)
          | None -> (
              match u.discrim with
              | Mint.Cstring key ->
                  let data =
                    String.length key + if enc.Encoding.string_nul then 1 else 0
                  in
                  put_len_k Encoding.Lstr data;
                  String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) key;
                  for _ = 1 to round_up data enc.Encoding.pad_unit - String.length key do
                    Mbuf.put_u8 buf 0
                  done
              | Mint.Cint _ | Mint.Cbool _ | Mint.Cchar _ ->
                  invalid_arg "Stub_interp: non-string key"));
          if u.case >= 0 then begin
            let case = List.nth cases u.case in
            let _, sub = List.nth arms u.case in
            encode ~enc ~mint ~named case.Mint.c_body sub buf u.payload
          end
          else
            match (default, default_arm) with
            | Some didx, Some (_, sub) ->
                encode ~enc ~mint ~named didx sub buf u.payload
            | _, _ -> invalid_arg "Stub_interp: default without default arm")
      | _ -> invalid_arg "Stub_interp: expected a union")
  | (Mint.Struct _ | Mint.Union _), _ ->
      invalid_arg "Stub_interp: PRES does not match MINT"

let compile_encoder ~enc ~mint ~named roots : Stub_opt.encoder =
  let be = enc.Encoding.big_endian in
  fun buf params ->
    List.iter
      (fun (root : Plan_compile.root) ->
        match root with
        | Plan_compile.Rconst_int (value, kind) -> (
            match enc.Encoding.var with
            | Some vcc ->
                Codec.write_var vcc ~check:true kind buf (Value.Vint64 value)
            | None ->
                if enc.Encoding.typed_headers then begin
                  Mbuf.align buf 4;
                  Mbuf.put_i32 buf ~be (Int64.to_int 0x4D544450L)
                end;
                Codec.write_stream buf ~be (Plan_compile.atom_of enc kind)
                  (Value.Vint (Int64.to_int value)))
        | Plan_compile.Rconst_str s -> (
            match enc.Encoding.var with
            | Some vcc ->
                Codec.write_vlen vcc ~check:true Encoding.Lstr buf
                  (String.length s);
                String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) s
            | None ->
                if enc.Encoding.typed_headers then begin
                  Mbuf.align buf 4;
                  Mbuf.put_i32 buf ~be (Int64.to_int 0x4D544450L)
                end;
                let data =
                  String.length s + if enc.Encoding.string_nul then 1 else 0
                in
                Mbuf.align buf enc.Encoding.len_prefix.Encoding.align;
                Mbuf.put_i32 buf ~be data;
                String.iter (fun c -> Mbuf.put_u8 buf (Char.code c)) s;
                for _ = 1 to round_up data enc.Encoding.pad_unit - String.length s do
                  Mbuf.put_u8 buf 0
                done)
        | Plan_compile.Rvalue (rv, idx, pres) -> (
            match rv with
            | Mplan.Rparam { index; _ } ->
                encode ~enc ~mint ~named idx pres buf params.(index)
            | _ -> invalid_arg "Stub_interp: roots must be parameters"))
      roots

(* Decoding interprets the type graph the same way.  The per-datum reads
   reuse the naive engine's checked discipline; what distinguishes this
   engine is that nothing is precompiled, so we simply rebuild the naive
   decoder closures on every message. *)
let compile_decoder ~enc ~mint ~named droots : Stub_opt.decoder =
  fun r ->
    let d =
      Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc ~mint
        ~named droots
    in
    d r
