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

(* -- element loops in two passes -------------------------------------- *)

(* A scanned loop body's op (Fplan.loop_mode), as the walk reads it.
   [Span]: align the source to [sa], the destination to [da]; copy the
   [l - nul_in] data bytes (within [lo .. hi]) of a length [l] read from
   a source word ([word]) or [len], and [more] fixed bytes; skip [nul_in]
   and the pad of [l] to [pad_in] on the source; on the destination, a
   length word of data + [nul_out] leads when [emit], and zeros to the
   pad of data + [nul_out] to [pad_out], plus [tail], follow.  [Fixed]: a
   run of (source offset or -1 to zero-fill, destination offset, length). *)
type step =
  | Span of { sa : int; da : int; word : bool; len : int; lo : int; hi : int; more : int;
              nul_in : int; nul_out : int; pad_in : int; pad_out : int; tail : int; emit : bool }
  | Fixed of { src : int; dst : int; moves : int array }

let step_of (op : Fplan.fop) =
  let span ?(sa = 1) ?(da = 1) ?(word = false) ?(len = 0) ?(lo = 0) ?(hi = None) ?(nul_in = false)
      ?(nul_out = false) ?(pad_in = 1) ?(pad_out = 1) ?(tail = 0) ?(emit = false) () =
    Span { sa; da; word; len; lo; hi = Option.value hi ~default:max_int; more = 0;
           nul_in = Bool.to_int nul_in; nul_out = Bool.to_int nul_out; pad_in; pad_out; tail; emit }
  in
  match op with
  | Fplan.F_src_align sa -> span ~sa ()
  | Fplan.F_dst_align da -> span ~da ()
  | Fplan.F_string { max_len = hi; src_nul; dst_nul; src_pad; dst_pad; _ } ->
      span ~sa:4 ~word:true ~hi ~nul_in:src_nul ~nul_out:dst_nul ~pad_in:src_pad ~pad_out:dst_pad
        ~emit:true ()
  | Fplan.F_byteseq { count = Fplan.Fc_wire { min_len; max_len = hi; _ }; emit_len; src_pad; dst_pad; _ } ->
      span ~sa:4 ~word:true ~lo:min_len ~hi ~pad_in:src_pad ~pad_out:dst_pad ~emit:emit_len ()
  | Fplan.F_blit { len; src_pad; dst_tail; _ } -> span ~len ~pad_in:src_pad ~tail:dst_tail ()
  | Fplan.F_atom_array { count = Fplan.Fc_fixed n; src_atom; dst_atom; dst_packed; _ } ->
      let align a = if n > 0 then a.Mplan.align else 1 in
      span ~sa:(if Fplan.word_atom src_atom then 4 else align src_atom)
        ~da:(if Fplan.word_atom dst_atom || dst_packed then 1 else align dst_atom)
        ~len:(n * src_atom.Mplan.size) ()
  | Fplan.F_run { src_size; dst_size; moves; _ } ->
      let triple = function
        | Fplan.Fm_copy { src_off; dst_off; len } -> [ src_off; dst_off; len ]
        | Fplan.Fm_zero { dst_off; len } -> [ -1; dst_off; len ]
        | _ -> invalid_arg "Stub_forward: a scanned run only copies and zero-fills"
      in
      Fixed { src = src_size; dst = dst_size; moves = Array.of_list (List.concat_map triple moves) }
  | _ -> invalid_arg "Stub_forward: an op the scan cannot move"

(* The body's steps, an alignment folded into the span after it and a
   run of one full copy into a span with no NUL, pad or tail before it
   (a dirent's scalar array and the run after it are one copy). *)
let rec fold_steps = function
  | Span a :: Span b :: rest when (not a.word) && a.len + a.more + a.tail = 0 && not a.emit ->
      fold_steps (Span { b with sa = max a.sa b.sa; da = max a.da b.da } :: rest)
  | Span a :: Fixed { src; dst; moves = [| 0; 0; len |] } :: rest
    when src = len && dst = len && a.nul_in + a.nul_out + a.tail = 0 && a.pad_in = 1 && a.pad_out = 1 ->
      fold_steps (Span { a with more = a.more + len } :: rest)
  | s :: rest -> s :: fold_steps rest
  | [] -> []

(* a scan's destination size, whether the run is still verbatim, and its data bytes *)
type walk = { mutable dsize : int; mutable clean : bool; mutable payload : int }

(* a pad's few zeros are stored inline, without a call *)
let zero w at len =
  if len > 8 then Mbuf.fill_zero w at len else for i = at to at + len - 1 do Mbuf.set_u8 w i 0 done

let[@inline] up n u = (n + u - 1) land - u (* [round_up] to a power of two *)

(* One walk over [n] elements from [b.(p0)], the source window ending at
   [stop], [base + i] being the reader position of [b.(i)] and [o] the
   writer's position past its origin.  It stores at the writer's cursor
   only when [write].  Returns the source bytes the run takes, or -1
   when an element would be refused or runs past [stop]. *)
let walk steps ~src_be ~dst_be ~verbatim ~write n b p0 stop base w o st =
  let p = ref p0 and d = ref 0 and clean = ref verbatim and payload = ref 0 in
  try
    for _ = 1 to n do
      for i = 0 to Array.length steps - 1 do
        match Array.unsafe_get steps i with
        | Span s ->
            let q = up (base + !p) s.sa - base in
            if q <> !p then clean := false;
            if s.word && q + 4 > stop then raise_notrace Exit;
            let l = if not s.word then s.len
              else Int32.to_int (if src_be then Bytes.get_int32_be b q else Bytes.get_int32_le b q) in
            let q = if s.word then q + 4 else q and data = l - s.nul_in in
            if data < s.lo || data > s.hi then raise_notrace Exit;
            let k = data + s.more in
            let next = q + k + s.nul_in + up l s.pad_in - l in
            if next > stop then raise_notrace Exit;
            if !clean then
              for j = q + k to next - 1 do
                if Bytes.unsafe_get b j <> '\000' then clean := false
              done;
            let dd = up (o + !d) s.da - o in
            let dl = data + s.nul_out and at = if s.emit then dd + 4 else dd in
            let zeros = up dl s.pad_out - data + s.tail in
            if write then begin
              if dd > !d then zero w !d (dd - !d);
              if s.emit then if dst_be then Mbuf.set_i32_be w dd dl else Mbuf.set_i32_le w dd dl;
              if k > 0 then Mbuf.set_bytes w at b q k;
              if zeros > 0 then zero w (at + k) zeros
            end;
            payload := !payload + data;
            d := at + k + zeros;
            p := next
        | Fixed f ->
            if !p + f.src > stop then raise_notrace Exit;
            if write then
              for j = 0 to (Array.length f.moves / 3) - 1 do
                let so = f.moves.(3 * j) and at = !d + f.moves.((3 * j) + 1) in
                if so < 0 then zero w at f.moves.((3 * j) + 2)
                else Mbuf.set_bytes w at b (!p + so) f.moves.((3 * j) + 2)
              done;
            p := !p + f.src;
            d := !d + f.dst
      done
    done;
    st.dsize <- !d; st.clean <- !clean; st.payload <- !payload;
    !p - p0
  with Exit -> -1

(* A loop's move once its count is read and checked: per element, or a
   scan, then one transfer (verbatim) or one reservation and one pass of
   length words, blits and zero fills (in window). *)
let relay_loop ~src_be ~dst_be (mode : Fplan.loop_mode) body per_element =
  let runs = List.length (List.filter (function Fplan.F_run _ -> true | _ -> false) body) in
  let moved n len borrowed =
    account ~len borrowed;
    if runs > 0 then Obs.incr fused_runs (n * runs)
  in
  match mode with
  | Fplan.Per_element -> per_element
  | Fplan.Verbatim (Some u) ->
      fun r w n ->
        if n * u <= Mbuf.remaining r then moved n (n * u) (Mbuf.transfer ~borrow:true r w (n * u))
        else per_element r w n
  | Fplan.Verbatim None | Fplan.In_window ->
      let steps = Array.of_list (fold_steps (List.map step_of body)) in
      let verbatim = mode <> Fplan.In_window in
      fun r w n ->
        let st = { dsize = 0; clean = false; payload = 0 } in
        let base = Mbuf.rpos r and o = Mbuf.pos w - Mbuf.origin w in
        let pass write b p stop = walk steps ~src_be ~dst_be ~verbatim ~write n b p stop (base - p) w o st in
        let len = Mbuf.window r pass false in
        if len < 0 then per_element r w n
        else if st.clean then moved n len (Mbuf.transfer ~borrow:true r w len)
        else begin
          Mbuf.ensure w st.dsize;
          ignore (Mbuf.window r pass true);
          Mbuf.skip r len;
          Mbuf.advance w st.dsize;
          moved n st.payload 0
        end

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
      let s_fast = Fplan.word_atom src_atom and d_fast = Fplan.word_atom dst_atom in
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
  | Fplan.F_loop { count; emit_len; src_min; src_ensure; dst_ensure; body } ->
      let get_n = counter_of ~be:src_be count in
      let fns = compile_ops ~src ~dst body in
      let k = Array.length fns in
      let per_element r w n =
        for _ = 1 to n do
          for i = 0 to k - 1 do
            (Array.unsafe_get fns i) r w
          done
        done
      in
      let move = relay_loop ~src_be ~dst_be (Fplan.loop_mode ~src ~dst body) body per_element in
      fun r w ->
        let n = get_n r in
        (* the decoder's bound first: no reservation on either side that
           the source bytes cannot back *)
        if src_min > 0 then Codec.need_elems r n ~min_elem:src_min;
        if emit_len then write_len ~be:dst_be w n;
        (match src_ensure with Some u -> Mbuf.need r (n * u) | None -> ());
        (match dst_ensure with Some u -> Mbuf.ensure w (n * u) | None -> ());
        if n > 0 then move r w n
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

let forward_of_plan (p : Fplan.plan) : forward =
  let fns = compile_ops ~src:p.Fplan.f_src ~dst:p.Fplan.f_dst p.Fplan.f_ops in
  let k = Array.length fns in
  fun r w ->
    for i = 0 to k - 1 do
      (Array.unsafe_get fns i) r w
    done

let forward_cache : forward Plan_cache.t =
  Plan_cache.create ~name:"stub_forward" ()

let compile_forward ~(src : Encoding.t) ~(dst : Encoding.t) ~mint ~named
    droots roots : forward =
  let fp = Plan_cache.fp_create ~enc:src ~mint ~named () in
  (* both sides' structure is in the key: the source fingerprint seeds
     it, the destination encoding, scatter-gather policy and the fusion
     enable flag tag it *)
  Plan_cache.fp_tag fp
    (Printf.sprintf "fwd:dst=%s,sg=%b,%d,%s" dst.Encoding.name
       (Mbuf.sg_enabled ())
       (Mbuf.borrow_threshold ())
       (Fplan_compile.fingerprint ()));
  List.iter (Plan_cache.fp_droot fp) droots;
  List.iter (Plan_cache.fp_root fp) roots;
  let key = Plan_cache.fp_contents fp in
  Plan_cache.find_or_add forward_cache key (fun () ->
      forward_of_plan (Fplan_compile.fuse ~src ~dst ~mint ~named droots roots))
