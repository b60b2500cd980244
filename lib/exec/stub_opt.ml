type encoder = Mbuf.t -> Value.t array -> unit
type decoder = Mbuf.reader -> Value.t array

type droot =
  | Dconst_int of int64 * Encoding.atom_kind
  | Dconst_str of string
  | Dvalue of Mint.idx * Pres.t

type env = { params : Value.t array; vars : Value.t array }

let value_len (v : Value.t) =
  match v with
  | Value.Vstring s -> String.length s
  | Value.Vbytes b -> Bytes.length b
  | Value.Vstring_view v | Value.Vbytes_view v -> v.Value.v_len
  | Value.Vint_array a -> Array.length a
  | Value.Varray a -> Array.length a
  | Value.Vopt None -> 0
  | Value.Vopt (Some _) -> 1
  | Value.Vvoid | Value.Vbool _ | Value.Vchar _ | Value.Vint _
  | Value.Vint64 _ | Value.Vfloat _ | Value.Vstruct _ | Value.Vunion _ ->
      invalid_arg "Stub_opt.value_len"

(* ------------------------------------------------------------------ *)
(* rv evaluation, precompiled to closure chains                         *)
(* ------------------------------------------------------------------ *)

let rec compile_rv (rv : Mplan.rv) : env -> Value.t =
  match rv with
  | Mplan.Rparam { index; _ } -> fun e -> e.params.(index)
  | Mplan.Rvar i -> fun e -> e.vars.(i)
  | Mplan.Rfield { base; index; _ } -> (
      let b = compile_rv base in
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


(* A loop body of the form [Align a?; Chunk items] whose items all read
   from the loop element can be fused into one store sequence per
   element.  Items must cover the whole chunk (no gaps) for the fused
   writer to skip zero-filling; chunks with static padding fall back to
   the generic path. *)
let rec rooted_at_var ~var (rv : Mplan.rv) =
  match rv with
  | Mplan.Rvar v -> v = var
  | Mplan.Rfield { base; _ } -> rooted_at_var ~var base
  | Mplan.Rarm _ | Mplan.Ropt _ | Mplan.Rdiscrim _ | Mplan.Rparam _ -> false

let gapless size (items : Mplan.item list) =
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
  let rec walk pos = function
    | [] -> pos = size
    | (s, e) :: rest -> s = pos && walk (max pos e) rest
  in
  walk 0 covered

let item_src_ok ~var (it : Mplan.item) =
  match it with
  | Mplan.It_atom { src; _ } | Mplan.It_bytes { src; _ } ->
      rooted_at_var ~var src
  | Mplan.It_const _ -> true

let fused_loop_body ~var (body : Mplan.op list) =
  let chunk = function
    | Mplan.Chunk { size; items; check = false; align = _ }
      when gapless size items && List.for_all (item_src_ok ~var) items ->
        Some (size, items)
    | _ -> None
  in
  match body with
  | [ op ] -> Option.map (fun (size, items) -> (1, size, items)) (chunk op)
  | [ Mplan.Align a; op ] ->
      Option.map (fun (size, items) -> (a, size, items)) (chunk op)
  | _ -> None

(* navigation from the loop element, with the environment cut away *)
let rec compile_elem_path ~var (rv : Mplan.rv) : Value.t -> Value.t =
  match rv with
  | Mplan.Rvar v when v = var -> fun v' -> v'
  | Mplan.Rfield { base; index; _ } -> (
      let b = compile_elem_path ~var base in
      fun e ->
        match b e with
        | Value.Vstruct a -> Array.unsafe_get a index
        | Value.Varray a -> a.(index)
        | Value.Vint_array a -> Value.Vint a.(index)
        | Value.Vbytes s -> Value.Vchar (Bytes.get s index)
        | _ -> invalid_arg "Stub_opt: Rfield over a non-aggregate")
  | _ -> invalid_arg "Stub_opt: unsupported fused path"

(* One chunk item, compiled to a store at its constant offset.  Shared
   between the tier-0 chunk writer and the tier-1 staged chunks (which
   regroup items but keep this form for whatever does not fuse). *)
let compile_item ~be (it : Mplan.item) : Mbuf.t -> env -> unit =
  match it with
  | Mplan.It_const { off; atom; value } ->
      fun buf _ -> Codec.write_const_at buf ~be off atom value
  | Mplan.It_bytes { off; len; pad; src } -> (
      let a = compile_rv src in
      fun buf env ->
        (match a env with
        | Value.Vbytes b ->
            if Bytes.length b <> len then
              invalid_arg "Stub_opt: fixed byte array length mismatch"
            else Mbuf.set_bytes buf off b 0 len
        | Value.Vstring s -> Mbuf.set_string buf off s 0 len
        | Value.Vbytes_view w | Value.Vstring_view w ->
            if w.Value.v_len <> len then
              invalid_arg "Stub_opt: fixed byte array length mismatch"
            else Mbuf.set_bytes buf off w.Value.v_base w.Value.v_off len
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

let compile_ops ~(enc : Encoding.t) ~subs ops : (Mbuf.t -> env -> unit) list =
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
  let rec compile_op (op : Mplan.op) : Mbuf.t -> env -> unit =
    match op with
    | Mplan.Align n -> fun buf _ -> Mbuf.align buf n
    | Mplan.Chunk { size; items; check; align = _ } ->
        let writers = List.map (compile_item ~be) items in
        (* zero the spans items do not cover (alignment gaps) *)
        let gaps =
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
        in
        fun buf env ->
          if check then Mbuf.ensure buf size;
          List.iter (fun (off, len) -> Mbuf.fill_zero buf off len) gaps;
          List.iter (fun w -> w buf env) writers;
          Mbuf.advance buf size
    | Mplan.Ensure_count { arr; unit_size; via = _ } ->
        let a = compile_rv arr in
        fun buf env -> Mbuf.ensure buf (value_len (a env) * unit_size)
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
    | Mplan.Put_string { src; _ } when vc <> None ->
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
          Codec.write_vlen vcc ~check:true Encoding.Lstr buf n;
          Mbuf.ensure buf n;
          Mbuf.set_string buf 0 s 0 n;
          Mbuf.advance buf n
    | Mplan.Put_string { src; nul; pad; len_src = _; borrow } ->
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
    | Mplan.Put_byteseq { arr; _ } when vc <> None ->
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
          Codec.write_vlen vcc ~check:true Encoding.Lbin buf blen;
          Mbuf.ensure buf blen;
          Mbuf.set_bytes buf 0 b boff blen;
          Mbuf.advance buf blen
    | Mplan.Put_byteseq { arr; pad; via = _; borrow } ->
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
    | Mplan.Put_atom_array { arr; atom; with_len; via = _ } when vc <> None ->
        let vcc = Option.get vc in
        let a = compile_rv arr in
        let kind = atom.Mplan.kind in
        (* one worst-case reservation for the whole run, then unchecked
           minimal-width emits per element; a Vint_array's ints go to
           the emitter as they are *)
        let worst = Plan_compile.vh_worst_of kind in
        fun buf env ->
          let v = a env in
          let n = value_len v in
          if with_len then Codec.write_vlen vcc ~check:true Encoding.Larr buf n;
          Mbuf.ensure buf (n * worst);
          (match v with
          | Value.Vint_array elems ->
              for i = 0 to n - 1 do
                Codec.write_var_int vcc ~check:false kind buf
                  (Array.unsafe_get elems i)
              done
          | Value.Varray elems ->
              for i = 0 to n - 1 do
                Codec.write_var vcc ~check:false kind buf
                  (Array.unsafe_get elems i)
              done
          | _ -> invalid_arg "Stub_opt: atom array over non-array")
    | Mplan.Put_atom_array { arr; atom; with_len; via = _ } ->
        (* never borrowed: the copy doubles as the byte-order transform *)
        compile_atom_array arr atom with_len
    | Mplan.Put_blit { src; len; pad } ->
        let a = compile_rv src in
        (* [len] is static, so the whole decision is compile-time *)
        let borrow = Mbuf.borrow_eligible len in
        fun buf env ->
          (match a env with
          | Value.Vbytes b ->
              if Bytes.length b <> len then
                invalid_arg "Stub_opt: fixed byte array length mismatch"
              else if borrow then Mbuf.put_borrow_bytes buf b 0 len
              else begin
                Mbuf.ensure buf len;
                Mbuf.set_bytes buf 0 b 0 len;
                Mbuf.advance buf len
              end
          | Value.Vbytes_view v ->
              if v.Value.v_len <> len then
                invalid_arg "Stub_opt: fixed byte array length mismatch"
              else if borrow then
                Mbuf.put_borrow_bytes buf v.Value.v_base v.Value.v_off len
              else begin
                Mbuf.ensure buf len;
                Mbuf.set_bytes buf 0 v.Value.v_base v.Value.v_off len;
                Mbuf.advance buf len
              end
          | Value.Vstring s ->
              if borrow && String.length s >= len then
                Mbuf.put_borrow_string buf s 0 len
              else begin
                Mbuf.ensure buf len;
                Mbuf.set_string buf 0 s 0 len;
                Mbuf.advance buf len
              end
          | _ -> invalid_arg "Stub_opt: Put_blit over non-bytes");
          if pad > 0 then begin
            Mbuf.ensure buf pad;
            Mbuf.fill_zero buf 0 pad;
            Mbuf.advance buf pad
          end
    | Mplan.Put_len { arr; via = _ } when vc <> None ->
        let vcc = Option.get vc in
        let a = compile_rv arr in
        fun buf env ->
          Codec.write_vlen vcc ~check:true Encoding.Larr buf
            (value_len (a env))
    | Mplan.Put_len { arr; via = _ } ->
        let a = compile_rv arr in
        fun buf env ->
          Mbuf.align buf 4;
          Mbuf.ensure buf 4;
          let n = value_len (a env) in
          (if be then Mbuf.set_i32_be buf 0 n else Mbuf.set_i32_le buf 0 n);
          Mbuf.advance buf 4
    | Mplan.Put_varhead { vh_kind; vh_check; vh_src; vh_image; vh_worst = _ }
      -> (
        let vcc =
          match vc with
          | Some v -> v
          | None -> invalid_arg "Stub_opt: Put_varhead under a fixed encoding"
        in
        match (vh_image, vh_src) with
        | Some img, _ -> put_image ~check:vh_check img
        | None, Mplan.Vh_const v ->
            put_image ~check:vh_check (Encoding.var_const_image vcc vh_kind v)
        | None, Mplan.Vh_value rv ->
            let a = compile_rv rv in
            fun buf env ->
              Codec.write_var vcc ~check:vh_check vh_kind buf (a env))
    | Mplan.Loop { arr; var; body; via = _ }
      when fused_loop_body ~var body <> None -> (
        (* the shape inlined C compiles a struct-array loop into: one
           capacity reservation outside (Ensure_count), then per element
           an alignment and a run of stores at constant offsets *)
        let a = compile_rv arr in
        let align, size, items =
          match fused_loop_body ~var body with
          | Some x -> x
          | None -> assert false
        in
        let writers =
          Array.of_list
            (List.map
               (fun (it : Mplan.item) ->
                 match it with
                 | Mplan.It_atom { off; atom; src } -> (
                     let get = compile_elem_path ~var src in
                     match (atom.Mplan.kind, atom.Mplan.size) with
                     | Encoding.Kint { bits; _ }, 4 when bits <= 32 ->
                         if be then fun buf v ->
                           Mbuf.set_i32_be buf off (Codec.as_int (get v))
                         else fun buf v ->
                           Mbuf.set_i32_le buf off (Codec.as_int (get v))
                     | _, _ ->
                         fun buf v -> Codec.write_at buf ~be off atom (get v))
                 | Mplan.It_const { off; atom; value } ->
                     fun buf _ -> Codec.write_const_at buf ~be off atom value
                 | Mplan.It_bytes { off; len; pad; src } -> (
                     let get = compile_elem_path ~var src in
                     fun buf v ->
                       (match get v with
                       | Value.Vbytes b -> Mbuf.set_bytes buf off b 0 len
                       | Value.Vstring s -> Mbuf.set_string buf off s 0 len
                       | Value.Vbytes_view w | Value.Vstring_view w ->
                           Mbuf.set_bytes buf off w.Value.v_base w.Value.v_off len
                       | _ -> invalid_arg "Stub_opt: It_bytes over non-bytes");
                       if pad > 0 then Mbuf.fill_zero buf (off + len) pad))
               items)
        in
        let nw = Array.length writers in
        let write_elem buf v =
          if align > 1 then Mbuf.align buf align;
          Mbuf.ensure buf size;
          for k = 0 to nw - 1 do
            (Array.unsafe_get writers k) buf v
          done;
          Mbuf.advance buf size
        in
        fun buf env ->
          match a env with
          | Value.Varray elems ->
              for i = 0 to Array.length elems - 1 do
                write_elem buf (Array.unsafe_get elems i)
              done
          | Value.Vopt None -> ()
          | Value.Vopt (Some v) -> write_elem buf v
          | _ -> invalid_arg "Stub_opt: Loop over non-array")
    | Mplan.Loop { arr; var; body; via = _ } -> (
        let a = compile_rv arr in
        let body_fns = Array.of_list (List.map compile_op body) in
        let run_body buf env =
          for k = 0 to Array.length body_fns - 1 do
            (Array.unsafe_get body_fns k) buf env
          done
        in
        fun buf env ->
          match a env with
          | Value.Varray elems ->
              for i = 0 to Array.length elems - 1 do
                env.vars.(var) <- Array.unsafe_get elems i;
                run_body buf env
              done
          | Value.Vopt None -> ()
          | Value.Vopt (Some v) ->
              env.vars.(var) <- v;
              run_body buf env
          | Value.Vint_array elems ->
              for i = 0 to Array.length elems - 1 do
                env.vars.(var) <- Value.Vint (Array.unsafe_get elems i);
                run_body buf env
              done
          | _ -> invalid_arg "Stub_opt: Loop over non-array")
    | Mplan.Switch { u; arms; default; _ } -> (
        let sel = compile_rv u in
        let n_cases =
          List.fold_left (fun acc (a : Mplan.arm) -> max acc a.Mplan.a_case) (-1)
            arms
          + 1
        in
        let table = Array.make (max n_cases 1) None in
        List.iter
          (fun (a : Mplan.arm) ->
            let fns = List.map compile_op a.Mplan.a_body in
            table.(a.Mplan.a_case) <- Some (fun buf env -> List.iter (fun f -> f buf env) fns))
          arms;
        let default_fn =
          match default with
          | None -> None
          | Some (_, body) ->
              let fns = List.map compile_op body in
              Some (fun buf env -> List.iter (fun f -> f buf env) fns)
        in
        fun buf env ->
          match sel env with
          | Value.Vunion { case; _ } -> (
              if case >= 0 && case < Array.length table then
                match table.(case) with
                | Some f -> f buf env
                | None -> invalid_arg "Stub_opt: missing union arm"
              else
                match default_fn with
                | Some f -> f buf env
                | None -> invalid_arg "Stub_opt: union case out of range")
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
  and compile_atom_array arr (atom : Mplan.atom) with_len =
    let a = compile_rv arr in
    let size = atom.Mplan.size in
    let write_len buf n =
      Mbuf.align buf 4;
      Mbuf.ensure buf 4;
      (if be then Mbuf.set_i32_be buf 0 n else Mbuf.set_i32_le buf 0 n);
      Mbuf.advance buf 4
    in
    match (atom.Mplan.kind, size) with
    | Encoding.Kint { bits; _ }, 4 when bits <= 32 ->
        (* the memcpy-analog fast path: one reservation, one tight loop.
           Boxed arrays of ints (e.g. loops the peephole pass fused into
           Put_atom_array) take the same path through a per-element
           unbox. *)
        let set = if be then Mbuf.set_i32_be else Mbuf.set_i32_le in
        fun buf env ->
          (match a env with
          | Value.Vint_array elems ->
              let n = Array.length elems in
              if with_len then write_len buf n;
              Mbuf.ensure buf (n * 4);
              for i = 0 to n - 1 do
                set buf (i * 4) (Array.unsafe_get elems i)
              done;
              Mbuf.advance buf (n * 4)
          | Value.Varray elems ->
              let n = Array.length elems in
              if with_len then write_len buf n;
              Mbuf.ensure buf (n * 4);
              for i = 0 to n - 1 do
                set buf (i * 4) (Codec.as_int (Array.unsafe_get elems i))
              done;
              Mbuf.advance buf (n * 4)
          | _ -> invalid_arg "Stub_opt: atom array over non-int-array")
    | _, _ ->
        fun buf env ->
          let v = a env in
          let n = value_len v in
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
  List.map compile_op ops

let encoder_of_plan ~enc (plan : Plan_compile.plan) : encoder =
  let subs : (string, (Mbuf.t -> env -> unit) ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (name, _) -> Hashtbl.replace subs name (ref (fun _ _ -> ())))
    plan.Plan_compile.p_subs;
  List.iter
    (fun (name, body) ->
      let fns = compile_ops ~enc ~subs body in
      let nvars = max_var body + 1 in
      let cell = Hashtbl.find subs name in
      cell :=
        fun buf env ->
          let env = { env with vars = Array.make (max nvars 1) Value.Vvoid } in
          List.iter (fun f -> f buf env) fns)
    plan.Plan_compile.p_subs;
  let fns = compile_ops ~enc ~subs plan.Plan_compile.p_ops in
  let fns = Array.of_list fns in
  let nvars = max_var plan.Plan_compile.p_ops + 1 in
  fun buf params ->
    let env = { params; vars = Array.make (max nvars 1) Value.Vvoid } in
    for k = 0 to Array.length fns - 1 do
      (Array.unsafe_get fns k) buf env
    done

(* ------------------------------------------------------------------ *)
(* Tier 1: staged encoding                                              *)
(* ------------------------------------------------------------------ *)

(* Arity-specialized sequencing: a staged op list becomes one flat
   closure calling its parts directly, instead of the tier-0 shape of a
   dispatch loop over a closure array (longer sequences split in half,
   so the dispatch cost stays logarithmic). *)
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

(* The staged specializer: partially evaluate the plan into flat
   closures.  Chunks regroup through Plan_stage — constants fold into
   precomputed byte images written with one blit, runs of 32-bit fields
   of one aggregate resolve their base once and store through
   offset/index arrays — and loop/switch bodies become single fused
   closures instead of op-dispatch loops.  Ops with no fused form keep
   their tier-0 compilation, so every staged plan writes byte-identical
   messages (pinned by test/test_stage.ml and the stage bench
   self-checks).  Plans with marshal subroutines do not stage (None):
   recursion has no flat-closure form, and the caller falls back to
   tier 0. *)
let staged_encoder_of_plan ~(enc : Encoding.t) (plan : Plan_compile.plan) :
    encoder option =
  if not (Plan_stage.stageable plan) then None
  else begin
    let be = enc.Encoding.big_endian in
    let subs : (string, (Mbuf.t -> env -> unit) ref) Hashtbl.t =
      Hashtbl.create 1
    in
    (* stageable plans have no Call ops, so the empty table is safe *)
    let delegate op =
      match compile_ops ~enc ~subs [ op ] with
      | [ f ] -> f
      | _ -> assert false
    in
    let stage_seg (seg : Plan_stage.seg) : Mbuf.t -> env -> unit =
      match seg with
      | Plan_stage.Seg_image { off; image } ->
          let n = Bytes.length image in
          fun buf _ -> Mbuf.set_bytes buf off image 0 n
      | Plan_stage.Seg_run { base; offs; idxs } -> (
          let b = compile_rv base in
          let n = Array.length offs in
          let set = if be then Mbuf.set_i32_be else Mbuf.set_i32_le in
          fun buf env ->
            match b env with
            | Value.Vstruct fs ->
                for k = 0 to n - 1 do
                  set buf
                    (Array.unsafe_get offs k)
                    (Codec.as_int
                       (Array.unsafe_get fs (Array.unsafe_get idxs k)))
                done
            | Value.Vint_array a ->
                for k = 0 to n - 1 do
                  set buf
                    (Array.unsafe_get offs k)
                    (Array.unsafe_get a (Array.unsafe_get idxs k))
                done
            | Value.Varray a ->
                for k = 0 to n - 1 do
                  set buf
                    (Array.unsafe_get offs k)
                    (Codec.as_int (Array.unsafe_get a (Array.unsafe_get idxs k)))
                done
            | Value.Vbytes s ->
                for k = 0 to n - 1 do
                  set buf offs.(k) (Char.code (Bytes.get s idxs.(k)))
                done
            | _ -> invalid_arg "Stub_opt: staged field run over non-aggregate")
      | Plan_stage.Seg_item it -> compile_item ~be it
    in
    let rec stage_op (op : Mplan.op) : Mbuf.t -> env -> unit =
      match op with
      | Mplan.Chunk { size; items; check; align = _ } -> (
          let run =
            seq_fns
              (Array.of_list
                 (List.map stage_seg (Plan_stage.chunk_segments ~be items)))
          in
          match (check, Plan_stage.chunk_gaps size items) with
          | false, [] ->
              fun buf env ->
                run buf env;
                Mbuf.advance buf size
          | true, [] ->
              fun buf env ->
                Mbuf.ensure buf size;
                run buf env;
                Mbuf.advance buf size
          | check, gaps ->
              fun buf env ->
                if check then Mbuf.ensure buf size;
                List.iter (fun (off, len) -> Mbuf.fill_zero buf off len) gaps;
                run buf env;
                Mbuf.advance buf size)
      | Mplan.Loop { var; body; _ } when fused_loop_body ~var body <> None ->
          (* tier 0 already compiles this shape to flat per-element
             stores; nothing further to fold *)
          delegate op
      | Mplan.Loop { arr; var; body; via } -> (
          let a = compile_rv arr in
          let run = seq_fns (Array.of_list (List.map stage_op body)) in
          let run_elem buf env v =
            env.vars.(var) <- v;
            run buf env
          in
          let generic buf env v =
            match v with
            | Value.Varray elems ->
                for i = 0 to Array.length elems - 1 do
                  run_elem buf env (Array.unsafe_get elems i)
                done
            | Value.Vopt None -> ()
            | Value.Vopt (Some v) -> run_elem buf env v
            | Value.Vint_array elems ->
                for i = 0 to Array.length elems - 1 do
                  run_elem buf env (Value.Vint (Array.unsafe_get elems i))
                done
            | _ -> invalid_arg "Stub_opt: Loop over non-array"
          in
          (* tiny fixed trip counts unroll into straight-line calls *)
          match Plan_stage.fixed_count via with
          | Some 2 ->
              fun buf env -> (
                match a env with
                | Value.Varray [| v0; v1 |] ->
                    run_elem buf env v0;
                    run_elem buf env v1
                | v -> generic buf env v)
          | Some 3 ->
              fun buf env -> (
                match a env with
                | Value.Varray [| v0; v1; v2 |] ->
                    run_elem buf env v0;
                    run_elem buf env v1;
                    run_elem buf env v2
                | v -> generic buf env v)
          | Some 4 ->
              fun buf env -> (
                match a env with
                | Value.Varray [| v0; v1; v2; v3 |] ->
                    run_elem buf env v0;
                    run_elem buf env v1;
                    run_elem buf env v2;
                    run_elem buf env v3
                | v -> generic buf env v)
          | _ -> fun buf env -> generic buf env (a env))
      | Mplan.Switch { u; arms; default; _ } -> (
          let sel = compile_rv u in
          let n_cases =
            List.fold_left
              (fun acc (a : Mplan.arm) -> max acc a.Mplan.a_case)
              (-1) arms
            + 1
          in
          let table = Array.make (max n_cases 1) None in
          List.iter
            (fun (a : Mplan.arm) ->
              table.(a.Mplan.a_case) <-
                Some (seq_fns (Array.of_list (List.map stage_op a.Mplan.a_body))))
            arms;
          let default_fn =
            Option.map
              (fun (_, body) ->
                seq_fns (Array.of_list (List.map stage_op body)))
              default
          in
          fun buf env ->
            match sel env with
            | Value.Vunion { case; _ } -> (
                if case >= 0 && case < Array.length table then
                  match table.(case) with
                  | Some f -> f buf env
                  | None -> invalid_arg "Stub_opt: missing union arm"
                else
                  match default_fn with
                  | Some f -> f buf env
                  | None -> invalid_arg "Stub_opt: union case out of range")
            | _ -> invalid_arg "Stub_opt: Switch over a non-union")
      | op -> delegate op
    in
    let run =
      seq_fns (Array.of_list (List.map stage_op plan.Plan_compile.p_ops))
    in
    let nvars = max_var plan.Plan_compile.p_ops + 1 in
    Some
      (fun buf params ->
        let env = { params; vars = Array.make (max nvars 1) Value.Vvoid } in
        run buf env)
  end

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

(* Tier bookkeeping: how many stubs were promoted, how calls split
   across tiers, and how often staging declined a plan — plus per-tier
   latency histograms (timing-gated like the per-engine ones above), so
   [flick stats] shows the interpreted-vs-staged latency gap
   directly. *)
let stage_promotions = Obs.counter "stage.promotions"
let stage_staged_calls = Obs.counter "stage.staged_calls"
let stage_interp_calls = Obs.counter "stage.interp_calls"
let stage_fallbacks = Obs.counter "stage.fallbacks"
let stage_encode_interp_ns = Obs.hist "stage.encode_interp_ns"
let stage_encode_staged_ns = Obs.hist "stage.encode_staged_ns"

(* Compiled encoders are memoized: the closure chains carry no per-call
   state (each invocation allocates its own env), so one encoder safely
   serves every request with the same message structure.  The key is the
   full structural fingerprint — see Plan_cache. *)
let encoder_cache : encoder Plan_cache.t =
  Plan_cache.create ~name:"stub_opt.encoder" ()

(* Tier promotion: the cached closure is a stable wrapper (so the
   physical-equality hot path of repeat compilations survives every
   tier change) that counts calls through the cache's per-fingerprint
   hotness counter and, when the counter reaches the threshold, swaps
   its target from the tier-0 interpreter to the staged closure and
   re-installs itself via Plan_cache.promote — counted under
   promotions, never inflating the hit rate.  The first [threshold]
   calls run interpreted; every later call runs staged.  Hotness
   counters survive cache eviction, so a hot plan recompiled after
   churn starts promoted. *)
let tiered_encoder ~key (tier0 : encoder) (staged : encoder) : encoder =
  let threshold = Opt_config.stage_threshold () in
  let calls = Plan_cache.hotness encoder_cache key in
  let promoted = ref (!calls >= threshold) in
  if !promoted then Obs.incr stage_promotions 1;
  let self = ref tier0 in
  let wrapper buf params =
    if !promoted then begin
      Obs.incr stage_staged_calls 1;
      if Obs.timing_enabled () then begin
        let t0 = Obs.now_ns () in
        staged buf params;
        Obs.observe stage_encode_staged_ns (Obs.now_ns () -. t0)
      end
      else staged buf params
    end
    else begin
      Obs.incr stage_interp_calls 1;
      incr calls;
      (if Obs.timing_enabled () then begin
         let t0 = Obs.now_ns () in
         tier0 buf params;
         Obs.observe stage_encode_interp_ns (Obs.now_ns () -. t0)
       end
       else tier0 buf params);
      if !calls >= threshold then begin
        promoted := true;
        Obs.incr stage_promotions 1;
        Plan_cache.promote encoder_cache key !self
      end
    end
  in
  self := wrapper;
  wrapper

let compile_encoder ?config ~enc ~mint ~named roots : encoder =
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let fp = Plan_cache.fp_create ~enc ~mint ~named () in
  (* the compiled closures bake in the plan's scatter-gather decisions,
     the pass pipeline that shaped the plan, and the tier policy, so
     all three are part of the encoder key too *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "sg=%b,%d,%s,%s" (Mbuf.sg_enabled ())
       (Mbuf.borrow_threshold ())
       (Opt_config.selection_fingerprint config)
       (Opt_config.stage_fingerprint ()));
  List.iter (Plan_cache.fp_root fp) roots;
  let key = Plan_cache.fp_contents fp in
  (* instrumented inside the cache: the cached closure IS the
     instrumented one, so repeat compilations return the same physical
     closure (pinned by the cache tests) and the gate check at call
     time keeps the wrapper free when timing is off *)
  Plan_cache.find_or_add encoder_cache key (fun () ->
      let plan = Plan_cache.plan ~enc ~mint ~named ~config roots in
      let tier0 =
        instrument_encoder encode_ns encode_bytes (encoder_of_plan ~enc plan)
      in
      if not (Opt_config.stage_enabled ()) then (fun buf params ->
        Obs.incr stage_interp_calls 1;
        tier0 buf params)
      else
        match staged_encoder_of_plan ~enc plan with
        | None ->
            Obs.incr stage_fallbacks 1;
            tier0
        | Some staged ->
            tiered_encoder ~key tier0
              (instrument_encoder encode_ns encode_bytes staged))

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
let read_var_elems vcc (kind : Encoding.atom_kind) =
  match kind with
  | Encoding.Kint { bits; _ } when bits <= 32 ->
      let fill = Encoding.var_fill_ints vcc kind in
      fun r n ->
        Codec.need_elems r n ~min_elem:1;
        let out = Array.make n 0 in
        fill r out;
        Value.Vint_array out
  | _ ->
      fun r n ->
        Codec.need_elems r n ~min_elem:1;
        let out = Array.make n Value.Vvoid in
        for i = 0 to n - 1 do
          Array.unsafe_set out i (Codec.read_var vcc kind r)
        done;
        Value.Varray out

let compile_value_decoder ~(enc : Encoding.t) ~mint
    ~(named : (string * (Mint.idx * Pres.t)) list) root_idx root_pres :
    Mbuf.reader -> Value.t =
  let be = enc.Encoding.big_endian in
  let vc = enc.Encoding.var in
  let atom_of kind = Plan_compile.atom_of enc kind in
  let hdr =
    if enc.Encoding.typed_headers then fun r ->
      Mbuf.ralign r 4;
      Mbuf.skip r 4
    else fun _ -> ()
  in
  (* the var-aware primitives, shared with the plan-driven decoder so
     this closure-tree baseline accepts exactly the same inputs *)
  let read_scalar kind : Mbuf.reader -> Value.t =
    match vc with
    | Some vcc -> fun r -> Codec.read_var vcc kind r
    | None ->
        let atom = atom_of kind in
        fun r -> Codec.read_stream r ~be atom
  in
  let get_arr_len =
    match vc with
    | Some vcc -> fun r -> Codec.read_vlen vcc Encoding.Larr r
    | None -> fun r -> Codec.read_len r ~be ~align:4
  in
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
  let read_key =
    match vc with
    | Some vcc ->
        fun r -> Mbuf.read_string r (Codec.read_vlen vcc Encoding.Lstr r)
    | None ->
        let nul = enc.Encoding.string_nul in
        let pad_unit = enc.Encoding.pad_unit in
        fun r ->
          let wire_len = Codec.read_len r ~be ~align:4 in
          let data_len = if nul then wire_len - 1 else wire_len in
          if data_len < 0 then raise (Codec.Decode_error "bad key length");
          let key = Mbuf.read_string r data_len in
          if nul then Mbuf.skip r 1;
          Codec.skip_pad r ~pad_unit wire_len;
          key
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
            | None -> invalid_arg ("Stub_opt: unknown presentation " ^ name)
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
        dec_union ~discrim ~cases ~default ~arms ~default_arm
    | (Mint.Struct _ | Mint.Union _), _ ->
        invalid_arg "Stub_opt: PRES does not match MINT"
  and dec_array ~elem ~min_len ~max_len (pres : Pres.t) =
    let pad_unit = enc.Encoding.pad_unit in
    let skip_pad r n = Codec.skip_pad r ~pad_unit n in
    match pres with
    | (Pres.Terminated_string | Pres.Terminated_string_len _)
      when vc <> None ->
        let vcc = Option.get vc in
        fun r ->
          hdr r;
          let n = Codec.read_vlen vcc Encoding.Lstr r in
          Codec.check_bounds ~what:"string" n ~min_len:0 ~max_len;
          Value.Vstring (Mbuf.read_string r n)
    | Pres.Terminated_string | Pres.Terminated_string_len _ ->
        let nul = enc.Encoding.string_nul in
        fun r ->
          hdr r;
          let wire_len = Codec.read_len r ~be ~align:4 in
          let data_len = if nul then wire_len - 1 else wire_len in
          if data_len < 0 then raise (Codec.Decode_error "bad string length");
          Codec.check_bounds ~what:"string" data_len ~min_len:0 ~max_len;
          let s = Mbuf.read_string r data_len in
          if nul then Mbuf.skip r 1;
          skip_pad r wire_len;
          Value.Vstring s
    | Pres.Fixed_array sub -> (
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun r ->
              hdr r;
              let b = Mbuf.read_bytes r min_len in
              skip_pad r min_len;
              Value.Vbytes b
        | _ -> (
            match Encoding.atom_of_mint (Mint.get mint elem) with
            | Some kind -> dec_scalar_array ~fixed:(Some min_len) ~max_len kind
            | None ->
                let d = dec elem sub in
                fun r ->
                  hdr r;
                  let out = Array.make min_len Value.Vvoid in
                  for i = 0 to min_len - 1 do
                    out.(i) <- d r
                  done;
                  Value.Varray out))
    | Pres.Counted_seq { elem = sub; _ } -> (
        match Mint.get mint elem with
        | (Mint.Char8 | Mint.Int { bits = 8; _ }) when vc <> None ->
            let vcc = Option.get vc in
            fun r ->
              hdr r;
              let n = Codec.read_vlen vcc Encoding.Lbin r in
              Codec.check_bounds ~what:"sequence" n ~min_len ~max_len;
              Value.Vbytes (Mbuf.read_bytes r n)
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            fun r ->
              hdr r;
              let n = Codec.read_len r ~be ~align:4 in
              Codec.check_bounds ~what:"sequence" n ~min_len ~max_len;
              let b = Mbuf.read_bytes r n in
              skip_pad r n;
              Value.Vbytes b
        | _ -> (
            match Encoding.atom_of_mint (Mint.get mint elem) with
            | Some kind -> dec_scalar_array ~fixed:None ~max_len kind
            | None ->
                let d = dec elem sub in
                fun r ->
                  hdr r;
                  let n = get_arr_len r in
                  Codec.check_bounds ~what:"sequence" n ~min_len ~max_len;
                  let out = Array.make n Value.Vvoid in
                  for i = 0 to n - 1 do
                    out.(i) <- d r
                  done;
                  Value.Varray out))
    | Pres.Opt_ptr sub ->
        let d = dec elem sub in
        fun r ->
          hdr r;
          let n, at = read_opt r in
          (match n with
          | 0 -> Value.Vopt None
          | 1 -> Value.Vopt (Some (d r))
          | n ->
              raise
                (Codec.Decode_error
                   (Printf.sprintf "optional count %d at byte %d" n at)))
    | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _
    | Pres.Void | Pres.Ref _ ->
        invalid_arg "Stub_opt: array PRES mismatch"
  and dec_scalar_array ~fixed ~max_len kind =
    match vc with
    | Some vcc ->
        fun r ->
          hdr r;
          let n =
            match fixed with
            | Some n -> n
            | None ->
                let n = Codec.read_vlen vcc Encoding.Larr r in
                Codec.check_bounds ~what:"array" n ~min_len:0 ~max_len;
                n
          in
          read_var_elems vcc kind r n
    | None -> dec_fixed_scalar_array ~fixed ~max_len kind
  and dec_fixed_scalar_array ~fixed ~max_len kind =
    let atom = atom_of kind in
    let size = atom.Mplan.size in
    match (kind, size) with
    | Encoding.Kint { bits; signed }, 4 when bits <= 32 ->
        (* chunked read: one bounds check for the whole run *)
        fun r ->
          hdr r;
          let n =
            match fixed with
            | Some n -> n
            | None ->
                let n = Codec.read_len r ~be ~align:4 in
                Codec.check_bounds ~what:"array" n ~min_len:0 ~max_len;
                n
          in
          Value.Vint_array (Codec.read_i32s ~be ~signed ~bits r n)
    | _, _ ->
        fun r ->
          hdr r;
          let n =
            match fixed with
            | Some n -> n
            | None ->
                let n = Codec.read_len r ~be ~align:4 in
                Codec.check_bounds ~what:"array" n ~min_len:0 ~max_len;
                n
          in
          Codec.need_elems r n ~min_elem:size;
          let out = Array.make n Value.Vvoid in
          for i = 0 to n - 1 do
            out.(i) <- Codec.read_stream r ~be atom
          done;
          (match kind with
          | Encoding.Kint { bits; _ } when bits <= 32 ->
              Value.Vint_array (Array.map Codec.as_int out)
          | _ -> Value.Varray out)
  and dec_union ~discrim ~cases ~default ~arms ~default_arm =
    let datom = Encoding.atom_of_mint (Mint.get mint discrim) in
    let arm_decs =
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
      | _, _ -> invalid_arg "Stub_opt: PRES/MINT default mismatch"
    in
    (* optimized dispatch: hash lookup rather than the linear compare
       chains of traditional stubs *)
    let table : (Mint.const, int * (Mbuf.reader -> Value.t)) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter (fun (c, i, d) -> Hashtbl.replace table c (i, d)) arm_decs;
    match datom with
    | Some kind ->
        let get_d = read_scalar kind in
        fun r ->
          hdr r;
          let v = get_d r in
          let const : Mint.const =
            match v with
            | Value.Vint n -> Mint.Cint (Int64.of_int n)
            | Value.Vbool b -> Mint.Cbool b
            | Value.Vchar c -> Mint.Cchar c
            | _ -> raise (Codec.Decode_error "bad discriminator")
          in
          (match Hashtbl.find_opt table const with
          | Some (case, d) ->
              Value.Vunion { case; discrim = const; payload = d r }
          | None -> (
              match default_dec with
              | Some d ->
                  Value.Vunion { case = -1; discrim = const; payload = d r }
              | None ->
                  raise
                    (Codec.Decode_error
                       (Format.asprintf "unknown discriminator %a" Mint.pp_const
                          const))))
    | None ->
        (* string-keyed operation union *)
        fun r ->
          hdr r;
          let key = read_key r in
          let const = Mint.Cstring key in
          (match Hashtbl.find_opt table const with
          | Some (case, d) ->
              Value.Vunion { case; discrim = const; payload = d r }
          | None ->
              raise (Codec.Decode_error ("unknown operation " ^ key)))
  in
  dec root_idx root_pres

let build_decoder ~enc ~mint ~named droots : decoder =
  let be = enc.Encoding.big_endian in
  let vc = enc.Encoding.var in
  let hdr =
    if enc.Encoding.typed_headers then fun r ->
      Mbuf.ralign r 4;
      Mbuf.skip r 4
    else fun _ -> ()
  in
  let steps =
    List.map
      (fun droot ->
        match droot with
        | Dconst_int (expect, kind) ->
            let get =
              match vc with
              | Some vcc -> fun r -> Codec.read_var vcc kind r
              | None ->
                  let atom = Plan_compile.atom_of enc kind in
                  fun r -> Codec.read_stream r ~be atom
            in
            `Skip
              (fun r ->
                hdr r;
                let v = get r in
                let got =
                  match v with
                  | Value.Vint n -> Int64.of_int n
                  | Value.Vint64 n -> n
                  | Value.Vbool b -> if b then 1L else 0L
                  | Value.Vchar c -> Int64.of_int (Char.code c)
                  | _ -> raise (Codec.Decode_error "bad constant")
                in
                if got <> expect then
                  raise
                    (Codec.Decode_error
                       (Printf.sprintf "expected constant %Ld, found %Ld" expect
                          got)))
        | Dconst_str expect ->
            let nul = enc.Encoding.string_nul in
            let pad_unit = enc.Encoding.pad_unit in
            let read_key =
              match vc with
              | Some vcc ->
                  fun r ->
                    Mbuf.read_string r (Codec.read_vlen vcc Encoding.Lstr r)
              | None ->
                  fun r ->
                    let wire_len = Codec.read_len r ~be ~align:4 in
                    let data_len = if nul then wire_len - 1 else wire_len in
                    if data_len < 0 then
                      raise (Codec.Decode_error "bad key length");
                    let key = Mbuf.read_string r data_len in
                    if nul then Mbuf.skip r 1;
                    let padded =
                      (wire_len + pad_unit - 1) / pad_unit * pad_unit
                    in
                    if padded > wire_len then Mbuf.skip r (padded - wire_len);
                    key
            in
            `Skip
              (fun r ->
                hdr r;
                let key = read_key r in
                if key <> expect then
                  raise
                    (Codec.Decode_error
                       (Printf.sprintf "expected key %S, found %S" expect key)))
        | Dvalue (idx, pres) ->
            `Value (compile_value_decoder ~enc ~mint ~named idx pres))
      droots
  in
  fun r ->
    let out = ref [] in
    List.iter
      (fun step ->
        match step with
        | `Skip f -> f r
        | `Value d -> out := d r :: !out)
      steps;
    Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Plan-driven decoding                                                 *)
(* ------------------------------------------------------------------ *)

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
  let selfdesc = vc <> None in
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
    | Dplan.D_loop { count; ensure; frame; slot } ->
        let get_n = read_count count in
        let body = compile_frame frame in
        (* a hoisted reservation covers the whole run; otherwise the
           count is first checked against the bytes that remain *)
        let reserve = Option.value ensure ~default:0 in
        let min_elem =
          if ensure = None then Dplan.min_wire ~selfdesc frame.Dplan.f_ops
          else 0
        in
        [
          Fill
            ( slot,
              fun r ->
                let n = get_n r in
                if reserve > 0 then Mbuf.need r (n * reserve)
                else if min_elem > 0 then Codec.need_elems r n ~min_elem;
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
                 unknown operation (the closure decoder behaves the
                 same) *)
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
    | Dplan.D_get_varhead { vh_kind; vh_slot; vh_expect; _ } -> (
        let vcc =
          match vc with
          | Some v -> v
          | None ->
              invalid_arg "Stub_opt: D_get_varhead under a fixed encoding"
        in
        match (vh_slot, vh_expect) with
        | Some slot, None -> (
            match vh_kind with
            | Encoding.Kint { bits; _ } when bits <= 32 ->
                [
                  Fill
                    ( slot,
                      fun r -> Value.Vint (Encoding.var_get_int vcc vh_kind r) );
                ]
            | _ -> [ Fill (slot, fun r -> Codec.read_var vcc vh_kind r) ])
        | None, Some expect ->
            [
              Effect
                (fun r -> expect_const ~expect (Codec.read_var vcc vh_kind r));
            ]
        | _, _ -> invalid_arg "Stub_opt: D_get_varhead needs slot xor expect")
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
    | (Dplan.Direct_chunk | Dplan.In_order), ops ->
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

let droot_key ~enc ~mint ~named ~views ~config droots =
  let fp = Plan_cache.fp_create ~enc ~mint ~named () in
  (* the compiled closures bake in the plan's view decisions and its
     pass pipeline, so the view/SG/pipeline configuration is part of
     the decoder key, mirroring the encoder's sg tag *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "views=%b,sg=%b,%d,%s" views (Mbuf.sg_enabled ())
       (Mbuf.borrow_threshold ())
       (Opt_config.selection_fingerprint config));
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

let compile_decoder ?config ~enc ~mint ~named ?(views = false) droots :
    decoder =
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let key = droot_key ~enc ~mint ~named ~views ~config droots in
  (* as for encoders: instrumented inside the cache so repeat
     compilations share one physical closure *)
  Plan_cache.find_or_add decoder_cache key (fun () ->
      let dplan =
        Plan_cache.dplan ~enc ~mint ~named ~views ~config
          (List.map to_dplan_droot droots)
      in
      instrument_decoder decode_ns decode_bytes (decoder_of_dplan ~enc dplan))
