(* The forward stub engine: executes fused forward plans ({!Fplan}),
   relaying a src-encoded message into a dst-encoded buffer without
   materializing values except at F_materialize fallbacks.

   Parity contract: on each buffer separately, this engine performs
   exactly the operations Stub_opt's decoder performs on the source and
   Stub_opt's encoder performs on the destination — same reads, same
   masks, same length/padding conventions, same typed errors.  The
   differential qcheck suite in test/test_forward.ml pins relayed
   output byte-identical to decode-then-reencode on every encoding
   pair, and failure parity on truncated/corrupted input. *)

type forward = Mbuf.reader -> Mbuf.t -> unit

(* Copy-elision accounting: [borrowed_bytes] moved by reference (zero
   bytes touched), [copied_bytes] crossed through memcpy — payload
   transfers only, small fixed-field moves inside fused runs are not
   payload.  [fallback_fields] counts executions of materialize ops. *)
let fused_runs = Obs.counter "forward.fused_runs"
let borrowed_bytes = Obs.counter "forward.borrowed_bytes"
let copied_bytes = Obs.counter "forward.copied_bytes"
let fallback_fields = Obs.counter "forward.fallback_fields"
let bswap_runs = Obs.counter "forward.bswap_runs"
let bswap_bytes = Obs.counter "forward.bswap_bytes"

let account ~len borrowed =
  if borrowed > 0 then Obs.incr borrowed_bytes borrowed;
  if len - borrowed > 0 then Obs.incr copied_bytes (len - borrowed)

let round_up n u = (n + u - 1) / u * u

let counter_of ~be (c : Fplan.fcount) : Mbuf.reader -> int =
  match c with
  | Fplan.Fc_fixed n -> fun _ -> n
  | Fplan.Fc_wire { min_len; max_len; what } ->
      fun r ->
        let n = Codec.read_len r ~be ~align:4 in
        Codec.check_bounds ~what n ~min_len ~max_len;
        n

(* Put_len / Put_atom_array length-word shape: aligned to 4, then the
   count under the destination's byte order. *)
let write_len ~be w n =
  Mbuf.align w 4;
  Mbuf.ensure w 4;
  (if be then Mbuf.set_i32_be w 0 n else Mbuf.set_i32_le w 0 n);
  Mbuf.advance w 4

(* Put_string / Put_byteseq length word: no self-alignment (the plan
   carries any needed Align as an explicit op). *)
let write_raw_len ~be w n =
  Mbuf.ensure w 4;
  (if be then Mbuf.set_i32_be w 0 n else Mbuf.set_i32_le w 0 n);
  Mbuf.advance w 4

let zero_tail w tail =
  if tail > 0 then begin
    Mbuf.ensure w tail;
    Mbuf.fill_zero w 0 tail;
    Mbuf.advance w tail
  end

let compile_move ~src_be ~dst_be (m : Fplan.fmove) :
    Mbuf.reader -> Mbuf.t -> unit =
  match m with
  | Fplan.Fm_copy { src_off; dst_off; len } ->
      fun r w -> Mbuf.copy_at r src_off w dst_off len
  | Fplan.Fm_convert { src_off; src_atom; dst_off; dst_atom } ->
      fun r w ->
        Codec.write_at w ~be:dst_be dst_off dst_atom
          (Codec.read_at r ~be:src_be src_off src_atom)
  | Fplan.Fm_check { src_off; atom; value = expect } ->
      fun r _ ->
        let got =
          match Codec.read_at r ~be:src_be src_off atom with
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
  | Fplan.Fm_const { dst_off; atom; value } ->
      fun _ w -> Codec.write_const_at w ~be:dst_be dst_off atom value
  | Fplan.Fm_zero { dst_off; len } -> fun _ w -> Mbuf.fill_zero w dst_off len

let rec compile_op ~(src : Encoding.t) ~(dst : Encoding.t) (op : Fplan.fop) :
    Mbuf.reader -> Mbuf.t -> unit =
  let src_be = src.Encoding.big_endian and dst_be = dst.Encoding.big_endian in
  match op with
  | Fplan.F_src_align n -> fun r _ -> Mbuf.ralign r n
  | Fplan.F_dst_align n -> fun _ w -> Mbuf.align w n
  | Fplan.F_run { src_size; dst_size; src_check; dst_check; moves } ->
      let fns =
        Array.of_list (List.map (compile_move ~src_be ~dst_be) moves)
      in
      let k = Array.length fns in
      fun r w ->
        if src_check && src_size > 0 then Mbuf.need r src_size;
        if dst_check && dst_size > 0 then Mbuf.ensure w dst_size;
        for i = 0 to k - 1 do
          (Array.unsafe_get fns i) r w
        done;
        if src_size > 0 then Mbuf.skip r src_size;
        if dst_size > 0 then Mbuf.advance w dst_size;
        Obs.incr fused_runs 1
  | Fplan.F_blit { len; src_pad; dst_tail; borrow } ->
      fun r w ->
        account ~len (Mbuf.transfer ~borrow r w len);
        zero_tail w dst_tail;
        Codec.skip_pad r ~pad_unit:src_pad len
  | Fplan.F_string { max_len; src_nul; dst_nul; src_pad; dst_pad; borrow } ->
      fun r w ->
        let wire_len = Codec.read_len r ~be:src_be ~align:4 in
        let data_len = if src_nul then wire_len - 1 else wire_len in
        if data_len < 0 then raise (Codec.Decode_error "bad string length");
        Codec.check_bounds ~what:"string" data_len ~min_len:0 ~max_len;
        let ddata = data_len + if dst_nul then 1 else 0 in
        write_raw_len ~be:dst_be w ddata;
        account ~len:data_len (Mbuf.transfer ~borrow r w data_len);
        zero_tail w (round_up ddata dst_pad - data_len);
        if src_nul then Mbuf.skip r 1;
        Codec.skip_pad r ~pad_unit:src_pad wire_len
  | Fplan.F_const_str { s; src_nul; src_pad; image } ->
      let n = String.length image in
      fun r w ->
        let wire_len = Codec.read_len r ~be:src_be ~align:4 in
        let data_len = if src_nul then wire_len - 1 else wire_len in
        if data_len < 0 then raise (Codec.Decode_error "bad key length");
        let key = Mbuf.read_string r data_len in
        if src_nul then Mbuf.skip r 1;
        Codec.skip_pad r ~pad_unit:src_pad wire_len;
        if key <> s then
          raise
            (Codec.Decode_error
               (Printf.sprintf "expected key %S, found %S" s key));
        Mbuf.ensure w n;
        Mbuf.set_string w 0 image 0 n;
        Mbuf.advance w n
  | Fplan.F_byteseq { count; emit_len; src_pad; dst_pad; borrow } ->
      let get_n = counter_of ~be:src_be count in
      fun r w ->
        let n = get_n r in
        if emit_len then write_raw_len ~be:dst_be w n;
        account ~len:n (Mbuf.transfer ~borrow r w n);
        zero_tail w (round_up n dst_pad - n);
        Codec.skip_pad r ~pad_unit:src_pad n
  | Fplan.F_atom_array
      { count; emit_len; src_atom; dst_atom; dst_packed; blit; borrow } -> (
      let get_n = counter_of ~be:src_be count in
      let ssize = src_atom.Mplan.size and dsize = dst_atom.Mplan.size in
      let s_fast =
        match (src_atom.Mplan.kind, ssize) with
        | Encoding.Kint { bits; _ }, 4 -> bits <= 32
        | _, _ -> false
      in
      let d_fast =
        match (dst_atom.Mplan.kind, dsize) with
        | Encoding.Kint { bits; _ }, 4 -> bits <= 32
        | _, _ -> false
      in
      (* destination-side preamble, exactly as the plan encoder's
         Put_atom_array (or, for [dst_packed], a chunk item run, which
         has no dynamic alignment at all) *)
      let dst_pre w n =
        if emit_len then write_len ~be:dst_be w n;
        if (not d_fast) && (not dst_packed) && n > 0 then
          Mbuf.align w dst_atom.Mplan.align
      in
      (* a convert run whose two layouts differ only in byte order is a
         pure per-element byte reversal (cdr -> fluke ints): one
         in-window loop instead of materializing an int array and
         re-encoding it.  Same alignment, bounds checks and advances as
         the s_fast/d_fast convert path, so the relayed bytes and
         failure behavior are identical. *)
      let pure_swap32 =
        (not blit) && s_fast && d_fast && src_be <> dst_be
        &&
        match (src_atom.Mplan.kind, dst_atom.Mplan.kind) with
        | Encoding.Kint { bits = 32; _ }, Encoding.Kint { bits = 32; _ } ->
            true
        | _, _ -> false
      in
      let write_ints = Codec.write_i32s ~be:dst_be in
      if blit then
        (* same bytes under both encodings: bulk transfer, with the
           source side's alignment behavior replicated per path *)
        fun r w ->
          let n = get_n r in
          dst_pre w n;
          if s_fast then Mbuf.ralign r 4
          else if n > 0 then Mbuf.ralign r src_atom.Mplan.align;
          account ~len:(n * ssize) (Mbuf.transfer ~borrow r w (n * ssize))
      else if pure_swap32 then
        fun r w ->
          let n = get_n r in
          dst_pre w n;
          Mbuf.ralign r 4;
          let total = n * 4 in
          Mbuf.need r total;
          Mbuf.ensure w total;
          Codec.swap_i32s r w n;
          Mbuf.skip r total;
          Mbuf.advance w total;
          Obs.incr bswap_runs 1;
          Obs.incr bswap_bytes total
      else
        (* convert: read exactly as the decoder, write exactly as the
           encoder, per-element *)
        match (s_fast, src_atom.Mplan.kind) with
        | true, Encoding.Kint { bits; signed } ->
            let read = Codec.read_i32s ~be:src_be ~signed ~bits in
            fun r w ->
              let n = get_n r in
              dst_pre w n;
              let elems = read r n in
              if d_fast then begin
                Mbuf.ensure w (n * 4);
                write_ints w (Value.Vint_array elems);
                Mbuf.advance w (n * 4)
              end
              else begin
                Mbuf.ensure w (n * dsize);
                for i = 0 to n - 1 do
                  Codec.write_at w ~be:dst_be (i * dsize) dst_atom
                    (Value.Vint (Array.unsafe_get elems i))
                done;
                Mbuf.advance w (n * dsize)
              end
        | _, _ ->
            fun r w ->
              let n = get_n r in
              dst_pre w n;
              (* the decoder's bound: no allocation the bytes cannot back *)
              Codec.need_elems r n ~min_elem:ssize;
              let elems = Array.make n Value.Vvoid in
              for i = 0 to n - 1 do
                Array.unsafe_set elems i (Codec.read_stream r ~be:src_be src_atom)
              done;
              if d_fast then begin
                Mbuf.ensure w (n * 4);
                write_ints w (Value.Varray elems);
                Mbuf.advance w (n * 4)
              end
              else begin
                Mbuf.ensure w (n * dsize);
                for i = 0 to n - 1 do
                  Codec.write_at w ~be:dst_be (i * dsize) dst_atom
                    (Array.unsafe_get elems i)
                done;
                Mbuf.advance w (n * dsize)
              end)
  | Fplan.F_counted_blit { count; emit_len; unit_size; borrow } ->
      let get_n = counter_of ~be:src_be count in
      fun r w ->
        let n = get_n r in
        if emit_len then write_len ~be:dst_be w n;
        Mbuf.need r (n * unit_size);
        account ~len:(n * unit_size) (Mbuf.transfer ~borrow r w (n * unit_size))
  | Fplan.F_loop { count; emit_len; src_min; src_ensure; dst_ensure; body } ->
      let get_n = counter_of ~be:src_be count in
      let fns = compile_ops ~src ~dst body in
      let k = Array.length fns in
      fun r w ->
        let n = get_n r in
        (* the decoder's bound first: no reservation on either side that
           the source bytes cannot back *)
        if src_min > 0 then Codec.need_elems r n ~min_elem:src_min;
        if emit_len then write_len ~be:dst_be w n;
        (match src_ensure with Some u -> Mbuf.need r (n * u) | None -> ());
        (match dst_ensure with Some u -> Mbuf.ensure w (n * u) | None -> ());
        for _ = 1 to n do
          for i = 0 to k - 1 do
            (Array.unsafe_get fns i) r w
          done
        done
  | Fplan.F_opt { body } ->
      let fns = compile_ops ~src ~dst body in
      let k = Array.length fns in
      fun r w ->
        Mbuf.ralign r 4;
        let at = Mbuf.rpos r in
        let n = Codec.read_len r ~be:src_be ~align:4 in
        if n <> 0 && n <> 1 then
          raise
            (Codec.Decode_error
               (Printf.sprintf "optional count %d at byte %d" n at));
        write_len ~be:dst_be w n;
        if n = 1 then
          for i = 0 to k - 1 do
            (Array.unsafe_get fns i) r w
          done
  | Fplan.F_materialize { dplan; mplan; _ } ->
      let dec = Stub_opt.decoder_of_dplan ~enc:src dplan in
      let re = Stub_opt.encoder_of_plan ~enc:dst mplan in
      fun r w ->
        let vals = dec r in
        Obs.incr fallback_fields 1;
        re w vals

and compile_ops ~src ~dst ops =
  Array.of_list (List.map (compile_op ~src ~dst) ops)

(* ------------------------------------------------------------------ *)
(* Plan-level entry points and the cached front door                   *)
(* ------------------------------------------------------------------ *)

let forward_plan ?config ~src ~dst ~mint ~named ?sg ?sg_threshold droots roots
    =
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let plan =
    Fplan_compile.fuse ~config ~src ~dst ~mint ~named ?sg ?sg_threshold droots
      roots
  in
  Pass.run_forward ~config plan

let forward_of_plan (p : Fplan.plan) : forward =
  let fns = compile_ops ~src:p.Fplan.f_src ~dst:p.Fplan.f_dst p.Fplan.f_ops in
  let k = Array.length fns in
  fun r w ->
    for i = 0 to k - 1 do
      (Array.unsafe_get fns i) r w
    done

let forward_cache : forward Plan_cache.t =
  Plan_cache.create ~name:"stub_forward" ()

let compile_forward ?config ~(src : Encoding.t) ~(dst : Encoding.t) ~mint
    ~named droots roots : forward =
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let fp = Plan_cache.fp_create ~enc:src ~mint ~named () in
  (* both sides' structure is in the key: the source fingerprint seeds
     it, the destination encoding, scatter-gather policy, pass
     selection, and the fusion enable flag tag it *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "fwd:dst=%s,sg=%b,%d,%s,%s" dst.Encoding.name
       (Mbuf.sg_enabled ())
       (Mbuf.borrow_threshold ())
       (Opt_config.selection_fingerprint config)
       (Fplan_compile.fingerprint ()));
  List.iter (Plan_cache.fp_droot fp) droots;
  List.iter (Plan_cache.fp_root fp) roots;
  let key = Plan_cache.fp_contents fp in
  Plan_cache.find_or_add forward_cache key (fun () ->
      forward_of_plan (forward_plan ~config ~src ~dst ~mint ~named droots roots))
