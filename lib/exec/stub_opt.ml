type encoder = Mbuf.t -> Value.t array -> unit
type decoder = Mbuf.reader -> Value.t array

type droot =
  | Dconst_int of int64 * Encoding.atom_kind
  | Dconst_str of string
  | Dvalue of Mint.idx * Pres.t

type env = { params : Value.t array; vars : Value.t array }

(* ------------------------------------------------------------------ *)
(* rv evaluation, precompiled to closure chains                         *)
(* ------------------------------------------------------------------ *)

(* a fixed array of [m] elements, refused unless it holds [m] *)
let sized fixed (a : env -> Value.t) =
  match fixed with None -> a | Some m -> fun e -> let v = a e in Codec.check_fixed (Value.length v) m; v

let fixed_of (via : Mplan.via) = match via with Mplan.Via_fixed m -> Some m | _ -> None

let rec compile_rv (rv : Mplan.rv) : env -> Value.t =
  match rv with
  | Mplan.Rparam { index; _ } -> fun e -> e.params.(index)
  | Mplan.Rvar i -> fun e -> e.vars.(i)
  | Mplan.Rfield { base; index; fixed; _ } -> (
      let b = sized fixed (compile_rv base) in
      fun e ->
        match b e with
        | Value.Vstruct a -> a.(index)
        | Value.Varray a -> a.(index)
        | Value.Vint_array a -> Value.Vint a.(index)
        | Value.Vbytes s -> Value.Vchar (Bytes.get s index)
        | _ -> invalid_arg "Stub_opt: Rfield over a non-aggregate")
  | Mplan.Rarm { base; case; _ } -> (
      let b = compile_rv base in
      fun e ->
        match b e with
        | Value.Vunion u ->
            if u.case <> case then
              invalid_arg "Stub_opt: union payload case mismatch"
            else u.payload
        | _ -> invalid_arg "Stub_opt: Rarm over a non-union")
  | Mplan.Ropt base -> (
      let b = compile_rv base in
      fun e ->
        match b e with
        | Value.Vopt (Some v) -> v
        | _ -> invalid_arg "Stub_opt: Ropt over empty optional")
  | Mplan.Rdiscrim { base; _ } -> (
      let b = compile_rv base in
      fun e ->
        match b e with
        | Value.Vunion u -> Codec.const_to_value u.discrim
        | _ -> invalid_arg "Stub_opt: Rdiscrim over a non-union")

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)
(* ------------------------------------------------------------------ *)

let max_var ops =
  let m = ref (-1) in
  let rec go ops =
    List.iter
      (fun (op : Mplan.op) ->
        match op with
        | Mplan.Loop { var; body; _ } ->
            if var > !m then m := var;
            go body
        | Mplan.Switch { arms; default; _ } ->
            List.iter (fun (a : Mplan.arm) -> go a.Mplan.a_body) arms;
            (match default with None -> () | Some (_, b) -> go b)
        | Mplan.Align _ | Mplan.Chunk _ | Mplan.Ensure_count _
        | Mplan.Put_const_str _ | Mplan.Put_string _ | Mplan.Put_byteseq _
        | Mplan.Put_atom_array _ | Mplan.Put_blit _ | Mplan.Put_len _
        | Mplan.Put_varhead _ | Mplan.Call _ ->
            ())
      ops
  in
  go ops;
  !m

(* Precompute the byte image of a constant counted string. *)
let const_str_image ~be s nul pad_count =
  let data = String.length s + if nul then 1 else 0 in
  let total = 4 + data + pad_count in
  let b = Bytes.make total '\000' in
  if be then Bytes.set_int32_be b 0 (Int32.of_int data)
  else Bytes.set_int32_le b 0 (Int32.of_int data);
  Bytes.blit_string s 0 b 4 (String.length s);
  b

(* Arity-specialized sequencing: an op list becomes one flat closure
   calling its parts directly, instead of a dispatch loop over a
   closure array (longer sequences split in half, so the dispatch cost
   stays logarithmic). *)
let rec seq_fns (fns : ('a -> 'b -> unit) array) : 'a -> 'b -> unit =
  match fns with
  | [||] -> fun _ _ -> ()
  | [| f |] -> f
  | [| f; g |] ->
      fun a b ->
        f a b;
        g a b
  | [| f; g; h |] ->
      fun a b ->
        f a b;
        g a b;
        h a b
  | [| f; g; h; i |] ->
      fun a b ->
        f a b;
        g a b;
        h a b;
        i a b
  | fns ->
      let n = Array.length fns in
      let m = n / 2 in
      let l = seq_fns (Array.sub fns 0 m)
      and r = seq_fns (Array.sub fns m (n - m)) in
      fun a b ->
        l a b;
        r a b

(* The [(off, len)] spans of a [size]-byte chunk that no item covers
   (alignment gaps), which the chunk writer zero-fills. *)
let chunk_gaps size (items : Mplan.item list) =
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
  let rec walk pos acc = function
    | [] -> if pos < size then (pos, size - pos) :: acc else acc
    | (s, e) :: rest ->
        let acc = if s > pos then (pos, s - pos) :: acc else acc in
        walk (max pos e) acc rest
  in
  List.rev (walk 0 [] covered)

(* A row's struct tree, as [Value.Vint_rows] spells it. *)
let rec row_shape (sh : Dplan.shape) =
  match sh with
  | Dplan.Sh_struct shapes -> Value.Rstruct (Array.of_list (List.map row_shape shapes))
  | Dplan.Sh_slot _ | Dplan.Sh_void -> Value.Rint

(* The one kernel call storing a rows loop's leading elements. *)
let rows_kernel ~(enc : Encoding.t) (rs : Dplan.row_store) : Mbuf.t -> Value.t -> int =
  let shape = row_shape rs.Dplan.rs_shape in
  match (rs.Dplan.rs_rows.Dplan.r_layout, rs.Dplan.rs_rows.Dplan.r_kind, enc.Encoding.var) with
  | Dplan.Rows_words { align; size; offs }, _, _ ->
      Codec.write_i32_rows ~be:enc.Encoding.big_endian ~align ~size ~offs:(Array.of_list offs)
        ~fill:(Array.of_list (List.map (fun (off, w) -> (off, Int64.to_int w)) rs.Dplan.rs_fill))
        ~shape
  | Dplan.Rows_heads, Encoding.Kint { bits; signed }, Some vcc ->
      Codec.write_var_rows vcc ~bits ~signed ~shape
  | _ -> invalid_arg "Stub_opt: not a rows loop"

(* One chunk item, compiled to a store at its constant offset. *)
let compile_item ~be (it : Mplan.item) : Mbuf.t -> env -> unit =
  match it with
  | Mplan.It_const { off; atom; value } ->
      fun buf _ -> Codec.write_const_at buf ~be off atom value
  | Mplan.It_bytes { off; len; pad; src } -> (
      let a = compile_rv src in
      fun buf env ->
        (match a env with
        | Value.Vbytes b ->
            Codec.check_fixed (Bytes.length b) len;
            Mbuf.set_bytes buf off b 0 len
        | Value.Vbytes_view w ->
            Codec.check_fixed w.Value.v_len len;
            Mbuf.set_bytes buf off w.Value.v_base w.Value.v_off len
        | _ -> invalid_arg "Stub_opt: It_bytes over non-bytes");
        if pad > 0 then Mbuf.fill_zero buf (off + len) pad)
  | Mplan.It_atom { off; atom; src } -> (
      let a = compile_rv src in
      (* specialize the hot 32-bit case *)
      match (atom.Mplan.kind, atom.Mplan.size) with
      | Encoding.Kint { bits; _ }, 4 when bits <= 32 ->
          if be then fun buf env -> Mbuf.set_i32_be buf off (Codec.as_int (a env))
          else fun buf env -> Mbuf.set_i32_le buf off (Codec.as_int (a env))
      | _, _ -> fun buf env -> Codec.write_at buf ~be off atom (a env))

(* A chunk's stores.  Every item writes at its own constant offset into
   space one capacity check reserved, so items regroup freely without
   changing the bytes:
   - byte-adjacent constants fold into one precomputed image, written
     with one blit;
   - 4-byte integer fields of one aggregate resolve the aggregate once
     and store through one Codec.write_i32_fields call, which reads an
     int array's elements without boxing them;
   - every other item, and a constant or field with no partner, is one
     store. *)
let chunk_stores ~be (items : Mplan.item list) : (Mbuf.t -> env -> unit) list =
  let const_of (it : Mplan.item) =
    match it with
    | Mplan.It_const { off; atom; value }
      when (match (atom.Mplan.kind, atom.Mplan.size) with
           | Encoding.Kint { bits = 64; _ }, _ | _, (1 | 2 | 4) -> true
           | _, _ -> false) ->
        Some (off, atom, value)
    | _ -> None
  and field_of (it : Mplan.item) =
    match it with
    | Mplan.It_atom
        { off; atom = { Mplan.kind = Encoding.Kint { bits; _ }; size = 4; _ };
          src = Mplan.Rfield { base; index; fixed; _ } }
      when bits <= 32 ->
        Some ((base, fixed), (off, index))
    | _ -> None
  in
  let images =
    List.fold_right
      (fun ((off, (atom : Mplan.atom), _) as c) runs ->
        match runs with
        | ((next, _, _) :: _ as run) :: rest when off + atom.Mplan.size = next ->
            (c :: run) :: rest
        | _ -> [ c ] :: runs)
      (List.sort compare (List.filter_map const_of items))
      []
    |> List.filter (fun run -> List.length run > 1)
  and runs =
    let fields = List.filter_map field_of items in
    List.sort_uniq compare (List.map fst fields)
    |> List.map (fun base ->
           (base, List.sort compare (List.filter_map (fun (b, f) -> if b = base then Some f else None) fields)))
    |> List.filter (fun (_, fs) -> List.length fs > 1)
  in
  let image run =
    let off0, _, _ = List.hd run in
    let n = List.fold_left (fun n (_, (atom : Mplan.atom), _) -> n + atom.Mplan.size) 0 run in
    let m = Mbuf.create n in
    Mbuf.ensure m n;
    List.iter (fun (off, atom, value) -> Codec.write_const_at m ~be (off - off0) atom value) run;
    Mbuf.advance m n;
    let image = Mbuf.contents m in
    fun buf _ -> Mbuf.set_bytes buf off0 image 0 n
  and run ((base, fixed), fs) =
    let b = compile_rv base in
    let write =
      Codec.write_i32_fields ~be ~len:(Option.value fixed ~default:(-1))
        ~offs:(Array.of_list (List.map fst fs))
        ~idxs:(Array.of_list (List.map snd fs))
    in
    fun buf env -> write buf (b env)
  and single it =
    match (const_of it, field_of it) with
    | Some c, _ -> not (List.exists (List.mem c) images)
    | None, Some (base, _) -> not (List.mem_assoc base runs)
    | None, None -> true
  in
  List.map image images
  @ List.map run runs
  @ List.map (compile_item ~be) (List.filter single items)

let compile_ops ~(enc : Encoding.t) ~subs ops : Mbuf.t -> env -> unit =
  let be = enc.Encoding.big_endian in
  let vc = enc.Encoding.var in
  (* emit a precomputed wire image; with [check:false] the bytes ride a
     covering reservation, exactly like an unchecked chunk *)
  let put_image ~check img =
    let n = String.length img in
    if check then fun buf (_ : env) ->
      Mbuf.ensure buf n;
      Mbuf.set_string buf 0 img 0 n;
      Mbuf.advance buf n
    else fun buf (_ : env) ->
      Mbuf.set_string buf 0 img 0 n;
      Mbuf.advance buf n
  in
  let rec compile_seq ops = seq_fns (Array.of_list (List.map compile_op ops))
  and compile_op (op : Mplan.op) : Mbuf.t -> env -> unit =
    match op with
    | Mplan.Align n -> fun buf _ -> Mbuf.align buf n
    | Mplan.Chunk { size; items; check; align = _ } ->
        let zero =
          List.map
            (fun (off, len) buf (_ : env) -> Mbuf.fill_zero buf off len)
            (chunk_gaps size items)
        in
        let run = seq_fns (Array.of_list (zero @ chunk_stores ~be items)) in
        if check then fun buf env ->
          Mbuf.ensure buf size;
          run buf env;
          Mbuf.advance buf size
        else fun buf env ->
          run buf env;
          Mbuf.advance buf size
    | Mplan.Ensure_count { arr; unit_size; via = _ } ->
        let a = compile_rv arr in
        fun buf env -> Mbuf.ensure buf (Value.length (a env) * unit_size)
    | Mplan.Put_const_str { s; nul = _; pad = _ } when vc <> None ->
        let vcc = Option.get vc in
        put_image ~check:true
          (Encoding.var_len_image vcc Encoding.Lstr (String.length s) ^ s)
    | Mplan.Put_const_str { s; nul; pad } ->
        let image = const_str_image ~be s nul pad in
        let n = Bytes.length image in
        fun buf _ ->
          Mbuf.ensure buf n;
          Mbuf.set_bytes buf 0 image 0 n;
          Mbuf.advance buf n
    | Mplan.Put_string { src; max_len; _ } when vc <> None ->
        let vcc = Option.get vc in
        let a = compile_rv src in
        (* value-dependent header, then the unpadded payload; the header
           emit carries its own worst-case check *)
        fun buf env ->
          let s =
            match a env with
            | Value.Vstring s -> s
            | Value.Vstring_view v -> Value.string_of_view v
            | _ -> invalid_arg "Stub_opt: Put_string over a non-string"
          in
          let n = String.length s in
          Codec.check_max ~what:"string" n max_len;
          Codec.write_vlen vcc ~check:true Encoding.Lstr buf n;
          Mbuf.ensure buf n;
          Mbuf.set_string buf 0 s 0 n;
          Mbuf.advance buf n
    | Mplan.Put_string { src; nul; pad; len_src = _; borrow; max_len } ->
        let a = compile_rv src in
        (* the borrow decision is baked in when the closure is built —
           the encoder fingerprint keys on the SG config, so a cached
           closure's behaviour is fully determined by its key, and the
           hot path pays one compare against a captured int instead of
           two global reads per string *)
        let thresh =
          if borrow && Mbuf.sg_enabled () then Mbuf.borrow_threshold ()
          else max_int
        in
        fun buf env ->
          let s = match a env with
            | Value.Vstring s -> s
            | Value.Vstring_view v -> Value.string_of_view v
            | _ -> invalid_arg "Stub_opt: Put_string over a non-string"
          in
          let slen = String.length s in
          Codec.check_max ~what:"string" slen max_len;
          let data = slen + if nul then 1 else 0 in
          let padded = (data + pad - 1) / pad * pad in
          if slen >= thresh then begin
            (* zero-copy: prefix in chunk storage, payload by reference,
               NUL/padding tail in chunk storage — same bytes as below *)
            Mbuf.ensure buf 4;
            (if be then Mbuf.set_i32_be buf 0 data
             else Mbuf.set_i32_le buf 0 data);
            Mbuf.advance buf 4;
            Mbuf.put_borrow_string buf s 0 slen;
            let tail = padded - slen in
            if tail > 0 then begin
              Mbuf.ensure buf tail;
              Mbuf.fill_zero buf 0 tail;
              Mbuf.advance buf tail
            end
          end
          else begin
            Mbuf.ensure buf (4 + padded);
            (if be then Mbuf.set_i32_be buf 0 data
             else Mbuf.set_i32_le buf 0 data);
            Mbuf.set_string buf 4 s 0 slen;
            Mbuf.fill_zero buf (4 + slen) (padded - slen);
            Mbuf.advance buf (4 + padded)
          end
    | Mplan.Put_byteseq { arr; max_len; _ } when vc <> None ->
        let vcc = Option.get vc in
        let a = compile_rv arr in
        fun buf env ->
          let b, boff, blen =
            match a env with
            | Value.Vbytes b -> (b, 0, Bytes.length b)
            | Value.Vbytes_view v ->
                (v.Value.v_base, v.Value.v_off, v.Value.v_len)
            | _ -> invalid_arg "Stub_opt: Put_byteseq over non-bytes"
          in
          Codec.check_max ~what:"sequence" blen max_len;
          Codec.write_vlen vcc ~check:true Encoding.Lbin buf blen;
          Mbuf.ensure buf blen;
          Mbuf.set_bytes buf 0 b boff blen;
          Mbuf.advance buf blen
    | Mplan.Put_byteseq { arr; pad; via = _; borrow; max_len } ->
        let a = compile_rv arr in
        let thresh =
          if borrow && Mbuf.sg_enabled () then Mbuf.borrow_threshold ()
          else max_int
        in
        fun buf env ->
          (* a view re-encodes without materializing: both the borrow
             and the copy path take (base, offset, length) ranges *)
          let b, boff, blen = match a env with
            | Value.Vbytes b -> (b, 0, Bytes.length b)
            | Value.Vbytes_view v -> (v.Value.v_base, v.Value.v_off, v.Value.v_len)
            | _ -> invalid_arg "Stub_opt: Put_byteseq over non-bytes"
          in
          Codec.check_max ~what:"sequence" blen max_len;
          let padded = (blen + pad - 1) / pad * pad in
          if blen >= thresh then begin
            Mbuf.ensure buf 4;
            (if be then Mbuf.set_i32_be buf 0 blen
             else Mbuf.set_i32_le buf 0 blen);
            Mbuf.advance buf 4;
            Mbuf.put_borrow_bytes buf b boff blen;
            let tail = padded - blen in
            if tail > 0 then begin
              Mbuf.ensure buf tail;
              Mbuf.fill_zero buf 0 tail;
              Mbuf.advance buf tail
            end
          end
          else begin
            Mbuf.ensure buf (4 + padded);
            (if be then Mbuf.set_i32_be buf 0 blen
             else Mbuf.set_i32_le buf 0 blen);
            Mbuf.set_bytes buf 4 b boff blen;
            Mbuf.fill_zero buf (4 + blen) (padded - blen);
            Mbuf.advance buf (4 + padded)
          end
    | Mplan.Put_atom_array { arr; atom; with_len; via; max_len } when vc <> None ->
        let vcc = Option.get vc in
        let a = sized (fixed_of via) (compile_rv arr) in
        let kind = atom.Mplan.kind in
        (* one worst-case reservation for the whole run, then unchecked
           minimal-width emits per element; a Vint_array's ints go to
           the emitter as they are, in one writer window *)
        let worst = Plan_compile.vh_worst_of kind in
        let put_ints =
          match kind with
          | Encoding.Kint { bits; signed } when bits <= 32 ->
              Encoding.var_put_ints vcc ~bits ~signed
          | _ -> fun _ _ -> invalid_arg "Stub_opt: int array of a wider field"
        in
        fun buf env ->
          let v = a env in
          let n = Value.length v in
          Codec.check_max ~what:"sequence" n max_len;
          if with_len then Codec.write_vlen vcc ~check:true Encoding.Larr buf n;
          Mbuf.ensure buf (n * worst);
          (match v with
          | Value.Vint_array elems -> put_ints buf elems
          | Value.Varray elems ->
              for i = 0 to n - 1 do
                Codec.write_var vcc ~check:false kind buf
                  (Array.unsafe_get elems i)
              done
          | _ -> invalid_arg "Stub_opt: atom array over non-array")
    | Mplan.Put_atom_array { arr; atom; with_len; via; max_len } ->
        (* never borrowed: the copy doubles as the byte-order transform *)
        compile_atom_array (sized (fixed_of via) (compile_rv arr)) atom with_len max_len
    | Mplan.Put_blit { src; len; pad } ->
        let a = compile_rv src in
        (* [len] is static, so the whole decision is compile-time *)
        let borrow = Mbuf.borrow_eligible len in
        fun buf env ->
          (match a env with
          | Value.Vbytes b ->
              Codec.check_fixed (Bytes.length b) len;
              if borrow then Mbuf.put_borrow_bytes buf b 0 len
              else begin
                Mbuf.ensure buf len;
                Mbuf.set_bytes buf 0 b 0 len;
                Mbuf.advance buf len
              end
          | Value.Vbytes_view v ->
              Codec.check_fixed v.Value.v_len len;
              if borrow then
                Mbuf.put_borrow_bytes buf v.Value.v_base v.Value.v_off len
              else begin
                Mbuf.ensure buf len;
                Mbuf.set_bytes buf 0 v.Value.v_base v.Value.v_off len;
                Mbuf.advance buf len
              end
          | _ -> invalid_arg "Stub_opt: Put_blit over non-bytes");
          if pad > 0 then begin
            Mbuf.ensure buf pad;
            Mbuf.fill_zero buf 0 pad;
            Mbuf.advance buf pad
          end
    | Mplan.Put_len { arr; via = _; max_len } when vc <> None ->
        let vcc = Option.get vc in
        let a = compile_rv arr in
        fun buf env ->
          let n = Value.length (a env) in
          Codec.check_max ~what:"sequence" n max_len;
          Codec.write_vlen vcc ~check:true Encoding.Larr buf n
    | Mplan.Put_len { arr; via = _; max_len } ->
        let a = compile_rv arr in
        fun buf env ->
          let n = Value.length (a env) in
          Codec.check_max ~what:"sequence" n max_len;
          Mbuf.align buf 4;
          Mbuf.ensure buf 4;
          (if be then Mbuf.set_i32_be buf 0 n else Mbuf.set_i32_le buf 0 n);
          Mbuf.advance buf 4
    | Mplan.Put_varhead { vh_kind; vh_check; vh_src; vh_worst = _ } ->
        let vcc =
          match vc with
          | Some v -> v
          | None -> invalid_arg "Stub_opt: Put_varhead under a fixed encoding"
        in
        let a = compile_rv vh_src in
        fun buf env -> Codec.write_var vcc ~check:vh_check vh_kind buf (a env)
    | Mplan.Loop { arr; var; body; via } -> (
        let a = sized (fixed_of via) (compile_rv arr) in
        let loop = compile_loop var body in
        match Dplan.store_rows ~var body with
        | None -> fun buf env -> loop 0 buf env (a env)
        | Some rs ->
            (* an element not spelled as the row, and the rest, take the body *)
            let store = rows_kernel ~enc rs in
            fun buf env ->
              let v = a env in
              match store buf v with 0 -> loop 0 buf env v | n -> if n < Value.length v then loop n buf env v)
    | Mplan.Switch { u; arms; default; _ } -> (
        let sel = compile_rv u in
        let n_cases =
          List.fold_left (fun acc (a : Mplan.arm) -> max acc a.Mplan.a_case) (-1)
            arms
          + 1
        in
        let table = Array.make (max n_cases 1) None and consts = Array.make n_cases (Mint.Cint 0L) in
        List.iter
          (fun (a : Mplan.arm) ->
            table.(a.Mplan.a_case) <- Some (compile_seq a.Mplan.a_body);
            consts.(a.Mplan.a_case) <- a.Mplan.a_const)
          arms;
        let default_fn = Option.map (fun (_, body) -> compile_seq body) default in
        fun buf env ->
          match sel env with
          | Value.Vunion { case; discrim; _ } -> (
              Codec.check_union consts ~default:(default_fn <> None) ~case discrim;
              match if case >= 0 then table.(case) else default_fn with
              | Some f -> f buf env
              | None -> invalid_arg "Stub_opt: missing union arm")
          | _ -> invalid_arg "Stub_opt: Switch over a non-union")
    | Mplan.Call (name, rv) -> (
        let a = compile_rv rv in
        let cell : (Mbuf.t -> env -> unit) ref =
          match Hashtbl.find_opt subs name with
          | Some c -> c
          | None -> invalid_arg ("Stub_opt: unknown subroutine " ^ name)
        in
        fun buf env ->
          let v = a env in
          !cell buf { params = [| v |]; vars = env.vars })
  (* the body per element, from element [from] on *)
  and compile_loop var body =
    let run_body = compile_seq body in
    let rec loop from buf env v =
      match v with
      | Value.Varray elems ->
          for i = from to Array.length elems - 1 do
            env.vars.(var) <- Array.unsafe_get elems i;
            run_body buf env
          done
      | Value.Vopt None -> ()
      | Value.Vopt (Some v) ->
          env.vars.(var) <- v;
          run_body buf env
      | Value.Vint_array elems ->
          for i = from to Array.length elems - 1 do
            env.vars.(var) <- Value.Vint (Array.unsafe_get elems i);
            run_body buf env
          done
      | Value.Vint_rows _ -> loop from buf env (Value.boxed v)
      | _ -> invalid_arg "Stub_opt: Loop over non-array"
    in
    loop
  and compile_atom_array a (atom : Mplan.atom) with_len max_len =
    let size = atom.Mplan.size in
    let write_len buf n =
      Mbuf.align buf 4;
      Mbuf.ensure buf 4;
      (if be then Mbuf.set_i32_be buf 0 n else Mbuf.set_i32_le buf 0 n);
      Mbuf.advance buf 4
    in
    match (atom.Mplan.kind, size) with
    | Encoding.Kint { bits; _ }, 4 when bits <= 32 ->
        (* the memcpy-analog fast path: one reservation, one in-window
           loop, over an int array or a boxed array of ints *)
        let write = Codec.write_i32s ~be in
        fun buf env ->
          let v = a env in
          let n = Value.length v in
          Codec.check_max ~what:"sequence" n max_len;
          if with_len then write_len buf n;
          Mbuf.ensure buf (n * 4);
          write buf v;
          Mbuf.advance buf (n * 4)
    | _, _ ->
        fun buf env ->
          let v = a env in
          let n = Value.length v in
          Codec.check_max ~what:"sequence" n max_len;
          if with_len then write_len buf n;
          (* an empty run writes nothing, not even alignment *)
          if n > 0 then Mbuf.align buf atom.Mplan.align;
          Mbuf.ensure buf (n * size);
          let write_elem i (e : Value.t) = Codec.write_at buf ~be (i * size) atom e in
          (match v with
          | Value.Vint_array elems ->
              Array.iteri (fun i x -> write_elem i (Value.Vint x)) elems
          | Value.Varray elems -> Array.iteri write_elem elems
          | _ -> invalid_arg "Stub_opt: atom array over non-array");
          Mbuf.advance buf (n * size)
  in
  compile_seq ops

let encoder_of_plan ~enc (plan : Plan_compile.plan) : encoder =
  let subs : (string, (Mbuf.t -> env -> unit) ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (name, _) -> Hashtbl.replace subs name (ref (fun _ _ -> ())))
    plan.Plan_compile.p_subs;
  List.iter
    (fun (name, body) ->
      let run = compile_ops ~enc ~subs body in
      let nvars = max 1 (max_var body + 1) in
      Hashtbl.find subs name := fun buf env ->
        run buf { env with vars = Array.make nvars Value.Vvoid })
    plan.Plan_compile.p_subs;
  let run = compile_ops ~enc ~subs plan.Plan_compile.p_ops in
  let nvars = max 1 (max_var plan.Plan_compile.p_ops + 1) in
  fun buf params -> run buf { params; vars = Array.make nvars Value.Vvoid }

(* Per-call latency and message-size histograms, shared shape across
   engines (Stub_naive registers its own set).  The closures test the
   Obs gate on every call: off (the default, and during benches) they
   cost one load and branch; on, two clock reads and two observations
   per operation. *)
let instrument_encoder ns bytes (e : encoder) : encoder =
 fun buf params ->
  if not (Obs.timing_enabled ()) then e buf params
  else begin
    let p0 = Mbuf.pos buf in
    let t0 = Obs.now_ns () in
    e buf params;
    Obs.observe ns (Obs.now_ns () -. t0);
    Obs.observe bytes (float_of_int (Mbuf.pos buf - p0))
  end

let instrument_decoder ns bytes (d : decoder) : decoder =
 fun r ->
  if not (Obs.timing_enabled ()) then d r
  else begin
    let r0 = Mbuf.remaining r in
    let t0 = Obs.now_ns () in
    let v = d r in
    Obs.observe ns (Obs.now_ns () -. t0);
    Obs.observe bytes (float_of_int (r0 - Mbuf.remaining r));
    v
  end

let encode_ns = Obs.hist "stub_opt.encode_ns"
let encode_bytes = Obs.hist "stub_opt.encode_bytes"
let decode_ns = Obs.hist "stub_opt.decode_ns"
let decode_bytes = Obs.hist "stub_opt.decode_bytes"

(* Benchmark-only: every encoder call counts under stage.staged_calls,
   and stage.interp_calls stays registered at 0, because bench/e2e
   reports stage.staged_share from the two.  A later benchmark change
   drops both. *)
let staged_calls = Obs.counter "stage.staged_calls"
let (_ : Obs.counter) = Obs.counter "stage.interp_calls"

(* Compiled encoders are memoized: the closure chains carry no per-call
   state (each invocation allocates its own env), so one encoder safely
   serves every request with the same message structure.  The key is the
   full structural fingerprint — see Plan_cache. *)
let encoder_cache : encoder Plan_cache.t =
  Plan_cache.create ~name:"stub_opt.encoder" ()

let compile_encoder ~enc ~mint ~named roots : encoder =
  let fp = Plan_cache.fp_create ~enc ~mint ~named () in
  (* the compiled closures bake in the plan's scatter-gather decisions,
     so they are part of the encoder key too *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "sg=%b,%d" (Mbuf.sg_enabled ()) (Mbuf.borrow_threshold ()));
  List.iter (Plan_cache.fp_root fp) roots;
  let key = Plan_cache.fp_contents fp in
  (* instrumented inside the cache, so repeat compilations return the
     same physical closure (pinned by the cache tests) and the gate
     check at call time keeps the wrapper free when timing is off *)
  Plan_cache.find_or_add encoder_cache key (fun () ->
      let plan = Plan_cache.plan ~enc ~mint ~named roots in
      let e = instrument_encoder encode_ns encode_bytes (encoder_of_plan ~enc plan) in
      fun buf params ->
        Obs.incr staged_calls 1;
        e buf params)

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)
(* ------------------------------------------------------------------ *)

(* The count/bounds/padding conventions live in Codec (read_len,
   check_bounds, skip_pad), shared with the rpcgen-style and
   interpretive engines. *)

(* [n] atoms under a value-dependent encoding.  Every element is
   header-checked on its own (the advance is data-dependent, so no
   run-wide [need] is possible), but each takes at least one byte, which
   bounds the count before anything is allocated.  Ints of at most 32
   bits fill an int array in place from the reader's window.  Applied
   to its first two arguments it builds that kernel once. *)
let var_ints vcc kind =
  let fill = Encoding.var_fill_ints vcc kind in
  fun r n ->
    Codec.need_elems r n ~min_elem:1;
    let out = Array.make n 0 in
    fill r out;
    out

let read_var_elems vcc (kind : Encoding.atom_kind) =
  match kind with
  | Encoding.Kint { bits; _ } when bits <= 32 ->
      let read = var_ints vcc kind in
      fun r n -> Value.Vint_array (read r n)
  | _ ->
      fun r n ->
        Codec.need_elems r n ~min_elem:1;
        let out = Array.make n Value.Vvoid in
        for i = 0 to n - 1 do
          Array.unsafe_set out i (Codec.read_var vcc kind r)
        done;
        Value.Varray out

(* The executor for Dplan programs compiles every frame to one
   [Mbuf.reader -> Value.t] closure that decodes straight to the
   frame's value, built the way Dplan.frame_build says:
   - a direct chunk checks once, loads each item at its constant offset
     into the shape, and advances once;
   - an in-order frame runs its ops in wire order, each shape leaf
     taking the next value read, into literal struct arrays;
   - only a slot frame, whose shape reads out of wire order, decodes
     into a per-call slot array first.
   Nothing outlives a call, so compiled decoders carry no cross-call
   state. *)

(* One wire-order step of a frame: it reads one slot's value, or only
   checks or moves the cursor. *)
type step =
  | Fill of int * (Mbuf.reader -> Value.t)
  | Effect of (Mbuf.reader -> unit)

let sign_extend n bits =
  let shift = Sys.int_size - bits in
  (n lsl shift) asr shift

let seq_effects = function
  | [] -> None
  | [ e ] -> Some e
  | es ->
      let es = Array.of_list es in
      Some
        (fun r ->
          for k = 0 to Array.length es - 1 do
            (Array.unsafe_get es k) r
          done)

(* A struct whose fields are read left to right.  Array-literal
   elements are evaluated right to left, so each field is bound
   first. *)
let struct_of (fields : ('a -> Value.t) list) : 'a -> Value.t =
  match fields with
  | [ a ] -> fun r -> Value.Vstruct [| a r |]
  | [ a; b ] ->
      fun r ->
        let x = a r in
        let y = b r in
        Value.Vstruct [| x; y |]
  | [ a; b; c ] ->
      fun r ->
        let x = a r in
        let y = b r in
        let z = c r in
        Value.Vstruct [| x; y; z |]
  | fields ->
      let fields = Array.of_list fields in
      fun r -> Value.Vstruct (Array.map (fun f -> f r) fields)

(* [leaf] is asked for the shape's slots in reading order. *)
let rec shape_reader leaf (sh : Dplan.shape) : 'a -> Value.t =
  match sh with
  | Dplan.Sh_void -> fun _ -> Value.Vvoid
  | Dplan.Sh_slot i -> leaf i
  | Dplan.Sh_struct shapes ->
      (* a fold, not a map: [leaf] must see the slots left to right *)
      struct_of
        (List.rev
           (List.fold_left (fun acc s -> shape_reader leaf s :: acc) [] shapes))

let dcompiler ~(enc : Encoding.t)
    ~(subs : (string, (Mbuf.reader -> Value.t) ref) Hashtbl.t) :
    Dplan.frame -> Mbuf.reader -> Value.t =
  let be = enc.Encoding.big_endian in
  let vc = enc.Encoding.var in
  let nul = enc.Encoding.string_nul in
  let pad_unit = enc.Encoding.pad_unit in
  (* a view is handed out only when the payload clears the borrow
     threshold at runtime and the segmented reader can alias it in one
     piece; both decisions are baked per op when the closure is built,
     and the decoder cache keys on the view/SG configuration *)
  let view_threshold view =
    if view && Mbuf.sg_enabled () then Mbuf.borrow_threshold () else max_int
  in
  let expect_const ~expect got =
    let got =
      match got with
      | Value.Vint n -> Int64.of_int n
      | Value.Vint64 n -> n
      | Value.Vbool b -> if b then 1L else 0L
      | Value.Vchar c -> Int64.of_int (Char.code c)
      | _ -> raise (Codec.Decode_error "bad constant")
    in
    if got <> expect then
      raise
        (Codec.Decode_error
           (Printf.sprintf "expected constant %Ld, found %Ld" expect got))
  in
  (* one chunk item, loaded at its offset from the chunk's start (the
     cursor stays there until the chunk's single advance) *)
  let load_item (it : Dplan.ditem) : step =
    match it with
    | Dplan.Dit_atom { off; atom; slot } -> (
        match (atom.Mplan.kind, atom.Mplan.size) with
        | Encoding.Kint { bits; signed }, 4 when bits <= 32 ->
            (* the hot 32-bit load, with Codec.read_at's extension rules *)
            let get = if be then Mbuf.get_i32_be else Mbuf.get_i32_le in
            Fill
              ( slot,
                if signed then fun r ->
                  Value.Vint (sign_extend (get r off) bits)
                else if bits >= 32 then fun r ->
                  Value.Vint (get r off land 0xFFFFFFFF)
                else
                  let mask = (1 lsl bits) - 1 in
                  fun r -> Value.Vint (get r off land mask) )
        | _, _ -> Fill (slot, fun r -> Codec.read_at r ~be off atom))
    | Dplan.Dit_bytes { off; len; slot } ->
        Fill (slot, fun r -> Value.Vbytes (Mbuf.get_bytes r off len))
    | Dplan.Dit_const { off; atom; value = expect } ->
        Effect (fun r -> expect_const ~expect (Codec.read_at r ~be off atom))
  in
  let read_count_lk lk (count : Dplan.dcount) : Mbuf.reader -> int =
    match count with
    | Dplan.Dc_fixed n -> fun _ -> n
    | Dplan.Dc_len { min_len; max_len; what } -> (
        match vc with
        | Some vcc ->
            fun r ->
              let n = Codec.read_vlen vcc lk r in
              Codec.check_bounds ~what n ~min_len ~max_len;
              n
        | None ->
            fun r ->
              let n = Codec.read_len r ~be ~align:4 in
              Codec.check_bounds ~what n ~min_len ~max_len;
              n)
  in
  let read_count = read_count_lk Encoding.Larr in
  let read_key =
    match vc with
    | Some vcc ->
        fun r ->
          let n = Codec.read_vlen vcc Encoding.Lstr r in
          Mbuf.read_string r n
    | None ->
        fun r ->
          let wire_len = Codec.read_len r ~be ~align:4 in
          let data_len = if nul then wire_len - 1 else wire_len in
          if data_len < 0 then raise (Codec.Decode_error "bad key length");
          let key = Mbuf.read_string r data_len in
          if nul then Mbuf.skip r 1;
          Codec.skip_pad r ~pad_unit wire_len;
          key
  in
  (* optional-count read: (count, byte position for diagnostics) *)
  let read_opt =
    match vc with
    | Some vcc ->
        fun r ->
          let at = Mbuf.rpos r in
          (Codec.read_vlen vcc Encoding.Larr r, at)
    | None ->
        fun r ->
          Mbuf.ralign r 4;
          let at = Mbuf.rpos r in
          (Codec.read_len r ~be ~align:4, at)
  in
  (* union discriminator read, value-dependent under var codecs *)
  let read_discrim (atom : Mplan.atom) : Mbuf.reader -> Value.t =
    match vc with
    | Some vcc -> fun r -> Codec.read_var vcc atom.Mplan.kind r
    | None -> fun r -> Codec.read_stream r ~be atom
  in
  (* a payload of [n] bytes: a view of the receive buffer when it
     clears [vthresh] and lies in one piece, else a copy *)
  let payload ~vthresh ~view_of ~copy r n =
    if n >= vthresh then
      match Mbuf.view_bytes r n with
      | Some (base, off, len) ->
          Mbuf.pin_reader r;
          view_of { Value.v_base = base; v_off = off; v_len = len }
      | None -> copy r n
    else copy r n
  in
  let string_view v = Value.Vstring_view v
  and copy_string r n = Value.Vstring (Mbuf.read_string r n) in
  (* a loop's [n] rows of ints with one kernel call (Dplan.loop_build),
     the count checked first: by the whole run's bounds check, which
     repeats a hoisted one, or at one byte per head *)
  let int_rows (build : Dplan.build) : Mbuf.reader -> int -> int array =
    match (build, vc) with
    | ( Dplan.Int_rows
          { r_layout = Dplan.Rows_words { align; size; offs };
            r_kind = Encoding.Kint { bits; signed }; _ },
        _ ) ->
        let read = Codec.read_i32_rows ~be ~signed ~bits ~size ~offs:(Array.of_list offs) in
        fun r n ->
          if n > 0 && align > 1 then Mbuf.ralign r align;
          read r n
    | Dplan.Int_rows { r_layout = Dplan.Rows_heads; r_kind; r_width }, Some vcc ->
        let read = var_ints vcc r_kind in
        fun r n -> read r (n * r_width)
    | _ -> invalid_arg "Stub_opt: not an int rows loop"
  in
  let rec compile_op (op : Dplan.dop) : step list =
    match op with
    | Dplan.D_align n -> [ Effect (fun r -> Mbuf.ralign r n) ]
    | Dplan.D_chunk { size; items = []; _ } ->
        [ Effect (fun r -> Mbuf.skip r size) ]
    | Dplan.D_chunk { size; items; check } ->
        (if check then [ Effect (fun r -> Mbuf.need r size) ] else [])
        @ List.map load_item items
        @ [ Effect (fun r -> Mbuf.skip r size) ]
    | Dplan.D_get_string { max_len; slot; view } when vc <> None ->
        let vcc = Option.get vc in
        let vthresh = view_threshold view in
        [
          Fill
            ( slot,
              fun r ->
                let n = Codec.read_vlen vcc Encoding.Lstr r in
                Codec.check_bounds ~what:"string" n ~min_len:0 ~max_len;
                payload ~vthresh ~view_of:string_view ~copy:copy_string r n );
        ]
    | Dplan.D_get_string { max_len; slot; view } ->
        let vthresh = view_threshold view in
        [
          Fill
            ( slot,
              fun r ->
                let wire_len = Codec.read_len r ~be ~align:4 in
                let data_len = if nul then wire_len - 1 else wire_len in
                if data_len < 0 then
                  raise (Codec.Decode_error "bad string length");
                Codec.check_bounds ~what:"string" data_len ~min_len:0 ~max_len;
                let v =
                  payload ~vthresh ~view_of:string_view ~copy:copy_string r
                    data_len
                in
                if nul then Mbuf.skip r 1;
                Codec.skip_pad r ~pad_unit wire_len;
                v );
        ]
    | Dplan.D_const_str expect ->
        [
          Effect
            (fun r ->
              let key = read_key r in
              if key <> expect then
                raise
                  (Codec.Decode_error
                     (Printf.sprintf "expected key %S, found %S" expect key)));
        ]
    | Dplan.D_get_byteseq { count; slot; view } ->
        let get_n = read_count_lk Encoding.Lbin count in
        let vthresh = view_threshold view in
        [
          Fill
            ( slot,
              fun r ->
                let n = get_n r in
                let v =
                  payload ~vthresh
                    ~view_of:(fun v -> Value.Vbytes_view v)
                    ~copy:(fun r n -> Value.Vbytes (Mbuf.read_bytes r n))
                    r n
                in
                Codec.skip_pad r ~pad_unit n;
                v );
        ]
    | Dplan.D_get_atom_array { count; atom; slot; _ } when vc <> None ->
        let get_n = read_count count in
        let read = read_var_elems (Option.get vc) atom.Mplan.kind in
        [ Fill (slot, fun r -> read r (get_n r)) ]
    | Dplan.D_get_atom_array { count; atom; slot; _ } -> (
        let get_n = read_count count in
        match (atom.Mplan.kind, atom.Mplan.size) with
        | Encoding.Kint { bits; signed }, 4 when bits <= 32 ->
            (* chunked read: one bounds check for the whole run *)
            let read = Codec.read_i32s ~be ~signed ~bits in
            [ Fill (slot, fun r -> Value.Vint_array (read r (get_n r))) ]
        | _, _ ->
            [
              Fill
                ( slot,
                  fun r ->
                    let n = get_n r in
                    Codec.need_elems r n ~min_elem:atom.Mplan.size;
                    let out = Array.make n Value.Vvoid in
                    for i = 0 to n - 1 do
                      out.(i) <- Codec.read_stream r ~be atom
                    done;
                    match atom.Mplan.kind with
                    | Encoding.Kint { bits; _ } when bits <= 32 ->
                        Value.Vint_array (Array.map Codec.as_int out)
                    | _ -> Value.Varray out );
            ])
    | Dplan.D_loop { count; frame; slot; _ }
      when Dplan.loop_build frame <> Dplan.frame_build frame ->
        let get_n = read_count count and read = int_rows (Dplan.loop_build frame) in
        let shape = row_shape frame.Dplan.f_shape in
        [ Fill (slot, fun r -> Value.Vint_rows { shape; ints = read r (get_n r) }) ]
    | Dplan.D_loop { count; ensure; elem_min; frame; slot } ->
        let get_n = read_count count in
        let body = compile_frame frame in
        (* a hoisted reservation covers the whole run; otherwise the
           count is first checked against the bytes that remain *)
        let reserve = Option.value ensure ~default:0 in
        [
          Fill
            ( slot,
              fun r ->
                let n = get_n r in
                if reserve > 0 then Mbuf.need r (n * reserve)
                else if elem_min > 0 then Codec.need_elems r n ~min_elem:elem_min;
                let out = Array.make n Value.Vvoid in
                for i = 0 to n - 1 do
                  Array.unsafe_set out i (body r)
                done;
                Value.Varray out );
        ]
    | Dplan.D_opt { frame; slot } ->
        let body = compile_frame frame in
        [
          Fill
            ( slot,
              fun r ->
                let n, at = read_opt r in
                match n with
                | 0 -> Value.Vopt None
                | 1 -> Value.Vopt (Some (body r))
                | n ->
                    raise
                      (Codec.Decode_error
                         (Printf.sprintf "optional count %d at byte %d" n at))
            );
        ]
    | Dplan.D_switch { discrim_atom; arms; default; slot } ->
        let table : (Mint.const, int * (Mbuf.reader -> Value.t)) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun (a : Dplan.darm) ->
            Hashtbl.replace table a.Dplan.d_const
              (a.Dplan.d_case, compile_frame a.Dplan.d_frame))
          arms;
        let default_body = Option.map compile_frame default in
        let read =
          match discrim_atom with
          | Some atom ->
              let get_d = read_discrim atom in
              fun r ->
                let const : Mint.const =
                  match get_d r with
                  | Value.Vint n -> Mint.Cint (Int64.of_int n)
                  | Value.Vbool b -> Mint.Cbool b
                  | Value.Vchar c -> Mint.Cchar c
                  | _ -> raise (Codec.Decode_error "bad discriminator")
                in
                (match Hashtbl.find_opt table const with
                | Some (case, body) ->
                    Value.Vunion { case; discrim = const; payload = body r }
                | None -> (
                    match default_body with
                    | Some body ->
                        Value.Vunion
                          { case = -1; discrim = const; payload = body r }
                    | None ->
                        raise
                          (Codec.Decode_error
                             (Format.asprintf "unknown discriminator %a"
                                Mint.pp_const const))))
          | None ->
              (* string-keyed operation union: a miss is always an
                 unknown operation *)
              fun r ->
                let key = read_key r in
                let const = Mint.Cstring key in
                (match Hashtbl.find_opt table const with
                | Some (case, body) ->
                    Value.Vunion { case; discrim = const; payload = body r }
                | None ->
                    raise (Codec.Decode_error ("unknown operation " ^ key)))
        in
        [ Fill (slot, read) ]
    | Dplan.D_get_varhead { vh_kind; vh_slot = slot; _ } -> (
        let vcc =
          match vc with
          | Some v -> v
          | None ->
              invalid_arg "Stub_opt: D_get_varhead under a fixed encoding"
        in
        match vh_kind with
        | Encoding.Kint { bits; _ } when bits <= 32 ->
            [
              Fill
                ( slot,
                  fun r -> Value.Vint (Encoding.var_get_int vcc vh_kind r) );
            ]
        | _ -> [ Fill (slot, fun r -> Codec.read_var vcc vh_kind r) ])
    | Dplan.D_call { sub; slot } ->
        let cell =
          match Hashtbl.find_opt subs sub with
          | Some c -> c
          | None -> invalid_arg ("Stub_opt: unknown unmarshal subroutine " ^ sub)
        in
        [ Fill (slot, fun r -> !cell r) ]
  and direct_chunk ~align ~size ~items ~check shape =
    let steps = List.map load_item items in
    let loads =
      List.filter_map
        (function Fill (s, p) -> Some (s, p) | Effect _ -> None)
        steps
    in
    let consts =
      seq_effects
        (List.filter_map (function Effect e -> Some e | Fill _ -> None) steps)
    in
    let build = shape_reader (fun s -> List.assoc s loads) shape in
    match consts with
    | None when align <= 1 ->
        if check then fun r ->
          Mbuf.need r size;
          let v = build r in
          Mbuf.skip r size;
          v
        else fun r ->
          let v = build r in
          Mbuf.skip r size;
          v
    | _ ->
        let consts = Option.value consts ~default:ignore in
        fun r ->
          if align > 1 then Mbuf.ralign r align;
          if check then Mbuf.need r size;
          consts r;
          let v = build r in
          Mbuf.skip r size;
          v
  and in_order steps shape =
    (* each leaf runs the effects before its fill, then the fill; the
       effects after the last fill run once the value is built *)
    let rest = ref steps in
    let leaf _ =
      let rec take pre = function
        | Effect e :: tl -> take (e :: pre) tl
        | Fill (_, p) :: tl -> (
            rest := tl;
            match seq_effects (List.rev pre) with
            | None -> p
            | Some e ->
                fun r ->
                  e r;
                  p r)
        | [] -> invalid_arg "Stub_opt: in-order frame has too few fills"
      in
      take [] !rest
    in
    let build = shape_reader leaf shape in
    match
      seq_effects
        (List.filter_map (function Effect e -> Some e | Fill _ -> None) !rest)
    with
    | None -> build
    | Some post ->
        fun r ->
          let v = build r in
          post r;
          v
  and slot_frame nslots steps shape =
    let steps =
      Array.of_list
        (List.map
           (function
             | Effect e -> fun r _ -> e r
             | Fill (s, p) -> fun r slots -> slots.(s) <- p r)
           steps)
    in
    let build = shape_reader (fun i slots -> Array.unsafe_get slots i) shape in
    fun r ->
      let slots = Array.make (max nslots 1) Value.Vvoid in
      for k = 0 to Array.length steps - 1 do
        (Array.unsafe_get steps k) r slots
      done;
      build slots
  and compile_frame (f : Dplan.frame) : Mbuf.reader -> Value.t =
    match (Dplan.frame_build f, f.Dplan.f_ops) with
    | Dplan.Direct_chunk, [ Dplan.D_chunk { size; items; check } ] ->
        direct_chunk ~align:1 ~size ~items ~check f.Dplan.f_shape
    | ( Dplan.Direct_chunk,
        [ Dplan.D_align align; Dplan.D_chunk { size; items; check } ] ) ->
        direct_chunk ~align ~size ~items ~check f.Dplan.f_shape
    | Dplan.Slot_frame _, ops ->
        slot_frame f.Dplan.f_nslots
          (List.concat_map compile_op ops)
          f.Dplan.f_shape
    | (Dplan.Direct_chunk | Dplan.In_order | Dplan.Int_rows _), ops ->
        in_order (List.concat_map compile_op ops) f.Dplan.f_shape
  in
  compile_frame

let decoder_of_dplan ~(enc : Encoding.t) (plan : Dplan.plan) : decoder =
  (* subroutine cells first, so D_call sites (including recursive ones)
     can link before the bodies are compiled *)
  let subs = Hashtbl.create 4 in
  List.iter
    (fun (name, _) -> Hashtbl.replace subs name (ref (fun _ -> Value.Vvoid)))
    plan.Dplan.d_subs;
  let compile_frame = dcompiler ~enc ~subs in
  List.iter
    (fun (name, frame) -> Hashtbl.find subs name := compile_frame frame)
    plan.Dplan.d_subs;
  let top =
    compile_frame
      {
        Dplan.f_nslots = plan.Dplan.d_nslots;
        f_ops = plan.Dplan.d_ops;
        f_shape = Dplan.Sh_struct plan.Dplan.d_shapes;
      }
  in
  fun r -> match top r with Value.Vstruct roots -> roots | v -> [| v |]

(* Compiled decoders are stateless between calls (per-call state lives
   in the reader and the values under construction), so they are
   memoized under the same structural fingerprints as encoders.  A
   cached decoder that raised on one malformed message decodes the next
   message afresh — test/test_decplan.ml injects truncations and
   corrupt discriminators against reused decoders to pin this. *)
let decoder_cache : decoder Plan_cache.t =
  Plan_cache.create ~name:"stub_opt.decoder" ()

let droot_key ~enc ~mint ~named ~views droots =
  let fp = Plan_cache.fp_create ~enc ~mint ~named () in
  (* the compiled closures bake in the plan's view decisions, so the
     view/SG configuration is part of the decoder key, mirroring the
     encoder's sg tag *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "views=%b,sg=%b,%d" views (Mbuf.sg_enabled ())
       (Mbuf.borrow_threshold ()));
  List.iter
    (fun droot ->
      match droot with
      | Dconst_int (n, kind) ->
          Plan_cache.fp_tag fp "Di";
          Plan_cache.fp_tag fp (Int64.to_string n);
          Plan_cache.fp_kind fp kind
      | Dconst_str s ->
          Plan_cache.fp_tag fp "Ds";
          Plan_cache.fp_tag fp s
      | Dvalue (idx, pres) ->
          Plan_cache.fp_tag fp "Dv";
          Plan_cache.fp_type fp idx pres)
    droots;
  Plan_cache.fp_contents fp

let to_dplan_droot (droot : droot) : Dplan_compile.droot =
  match droot with
  | Dconst_int (n, kind) -> Dplan_compile.Dconst_int (n, kind)
  | Dconst_str s -> Dplan_compile.Dconst_str s
  | Dvalue (idx, pres) -> Dplan_compile.Dvalue (idx, pres)

let compile_decoder ~enc ~mint ~named ?(views = false) droots : decoder =
  let key = droot_key ~enc ~mint ~named ~views droots in
  (* as for encoders: instrumented inside the cache so repeat
     compilations share one physical closure *)
  Plan_cache.find_or_add decoder_cache key (fun () ->
      let dplan =
        Plan_cache.dplan ~enc ~mint ~named ~views (List.map to_dplan_droot droots)
      in
      instrument_decoder decode_ns decode_bytes (decoder_of_dplan ~enc dplan))
