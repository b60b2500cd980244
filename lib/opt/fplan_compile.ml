(* Cross-chunk copy propagation: fuse a decode plan and an encode plan
   for the same message shape into a forward plan.  See
   fplan_compile.mli for the pairing rules and the soundness
   argument. *)

exception Unsupported of string

(* A per-root encode plan that references parameters other than its own
   root (e.g. a string presented with a separate length parameter)
   cannot be fused or materialized root-by-root; the whole message
   falls back to one decode + re-encode pair. *)
exception Cross_root

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag
let fingerprint () = Printf.sprintf "fwd=%b" !enabled_flag

(* -- blit safety ----------------------------------------------------- *)

(* An atom may move as raw bytes only when decode-then-reencode is the
   identity on every bit pattern: full-width integers (masking and
   sign-extension preserve all stored bits) and single-byte chars.
   Booleans normalize to 0/1, wide chars zero their high bytes, and
   float32 may canonicalize NaNs through the double round-trip — those
   convert instead, which reproduces the baseline normalization. *)
let atom_blit_safe (a : Mplan.atom) =
  match a.Mplan.kind with
  | Encoding.Kint { bits; _ } -> bits = 8 * a.Mplan.size
  | Encoding.Kchar -> a.Mplan.size = 1
  | Encoding.Kbool | Encoding.Kfloat _ -> false

let pair_blit_safe ~src_be ~dst_be (sa : Mplan.atom) (da : Mplan.atom) =
  sa.Mplan.size = da.Mplan.size
  && sa.Mplan.kind = da.Mplan.kind
  && atom_blit_safe sa
  && (sa.Mplan.size = 1 || src_be = dst_be)

(* -- token streams ---------------------------------------------------

   Both plans explode into flat queues of atomic pieces: chunks break
   into their items plus the gaps between them (in offset order, which
   is wire order — the same MINT fields appear in the same sequence
   under every encoding), variable-length ops stay whole.  The fuser
   pairs the two queues head to head. *)

type spiece =
  | Sp_atom of Mplan.atom
  | Sp_bytes of int
  | Sp_const of Mplan.atom * int64
  | Sp_gap of int

type stok =
  | Ts_align of int
  | Ts_piece of bool * spiece (* chunk check flag, piece *)
  | Ts_var of Dplan.dop

type dpiece =
  | Dp_atom of Mplan.atom
  | Dp_bytes of int
  | Dp_const of Mplan.atom * int64
  | Dp_gap of int

type dtok =
  | Td_align of int
  | Td_piece of bool * dpiece
  | Td_var of Mplan.op

let explode_src_chunk size items check =
  let keyed =
    List.map
      (fun (it : Dplan.ditem) ->
        match it with
        | Dplan.Dit_atom { off; atom; _ } ->
            (off, atom.Mplan.size, [ Sp_atom atom ])
        | Dplan.Dit_bytes { off; len; _ } -> (off, len, [ Sp_bytes len ])
        | Dplan.Dit_const { off; atom; value } ->
            (off, atom.Mplan.size, [ Sp_const (atom, value) ]))
      items
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let rec walk pos acc = function
    | [] ->
        let acc = if pos < size then Sp_gap (size - pos) :: acc else acc in
        List.rev acc
    | (off, sz, pieces) :: rest ->
        if off < pos then raise (Unsupported "overlapping decode items");
        let acc = if off > pos then Sp_gap (off - pos) :: acc else acc in
        walk (off + sz) (List.rev_append pieces acc) rest
  in
  List.map (fun p -> Ts_piece (check, p)) (walk 0 [] keyed)

let explode_dst_chunk size items check =
  let keyed =
    List.map
      (fun (it : Mplan.item) ->
        match it with
        | Mplan.It_atom { off; atom; _ } ->
            (off, atom.Mplan.size, [ Dp_atom atom ])
        | Mplan.It_bytes { off; len; pad; _ } ->
            (* the item zero-fills its own pad: data then a gap *)
            ( off,
              len + pad,
              if pad > 0 then [ Dp_bytes len; Dp_gap pad ] else [ Dp_bytes len ]
            )
        | Mplan.It_const { off; atom; value } ->
            (off, atom.Mplan.size, [ Dp_const (atom, value) ]))
      items
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let rec walk pos acc = function
    | [] ->
        let acc = if pos < size then Dp_gap (size - pos) :: acc else acc in
        List.rev acc
    | (off, sz, pieces) :: rest ->
        if off < pos then raise (Unsupported "overlapping encode items");
        let acc = if off > pos then Dp_gap (off - pos) :: acc else acc in
        walk (off + sz) (List.rev_append pieces acc) rest
  in
  List.map (fun p -> Td_piece (check, p)) (walk 0 [] keyed)

let stoks_of ops =
  List.concat_map
    (function
      | Dplan.D_align n -> [ Ts_align n ]
      | Dplan.D_chunk { size; items; check } ->
          explode_src_chunk size items check
      | op -> [ Ts_var op ])
    ops

let dtoks_of ops =
  List.concat_map
    (function
      | Mplan.Align n -> [ Td_align n ]
      | Mplan.Chunk { size; items; check; align = _ } ->
          explode_dst_chunk size items check
      | op -> [ Td_var op ])
    ops

(* -- pairing --------------------------------------------------------- *)

type ctx = { src : Encoding.t; dst : Encoding.t; sg : bool }

let fcount_of = function
  | Dplan.Dc_fixed n -> Fplan.Fc_fixed n
  | Dplan.Dc_len { min_len; max_len; what } ->
      Fplan.Fc_wire { min_len; max_len; what }

let run1 ~src_size ~dst_size ~src_check ~dst_check moves =
  Fplan.F_run { src_size; dst_size; src_check; dst_check; moves }

(* Take exactly [n] uniform atom pieces off the destination queue — the
   unrolled fixed scalar array the encode side embeds in its chunk. *)
let take_atom_run n atom dtoks =
  let rec go k acc = function
    | d when k = 0 -> (List.rev acc, d)
    | Td_piece (_, Dp_atom a) :: rest when a = atom -> go (k - 1) (a :: acc) rest
    | _ -> raise (Unsupported "scalar array vs. non-uniform item run")
  in
  go n [] dtoks

let rec fuse_seq ctx stoks dtoks acc =
  match (stoks, dtoks) with
  | [], [] -> List.rev acc
  (* one-sided source tokens: padding skipped, constants verified *)
  | Ts_align n :: s, d -> fuse_seq ctx s d (Fplan.F_src_align n :: acc)
  | Ts_piece (c, Sp_gap n) :: s, d ->
      fuse_seq ctx s d
        (run1 ~src_size:n ~dst_size:0 ~src_check:c ~dst_check:false [] :: acc)
  | Ts_piece (c, Sp_const (a, v)) :: s, d ->
      fuse_seq ctx s d
        (run1 ~src_size:a.Mplan.size ~dst_size:0 ~src_check:c ~dst_check:false
           [ Fplan.Fm_check { src_off = 0; atom = a; value = v } ]
        :: acc)
  (* one-sided destination tokens: padding and constants regenerated *)
  | s, Td_align n :: d -> fuse_seq ctx s d (Fplan.F_dst_align n :: acc)
  | s, Td_piece (c, Dp_gap n) :: d ->
      fuse_seq ctx s d
        (run1 ~src_size:0 ~dst_size:n ~src_check:false ~dst_check:c
           [ Fplan.Fm_zero { dst_off = 0; len = n } ]
        :: acc)
  | s, Td_piece (c, Dp_const (a, v)) :: d ->
      fuse_seq ctx s d
        (run1 ~src_size:0 ~dst_size:a.Mplan.size ~src_check:false ~dst_check:c
           [ Fplan.Fm_const { dst_off = 0; atom = a; value = v } ]
        :: acc)
  (* fixed data pairs *)
  | Ts_piece (sc, Sp_atom sa) :: s, Td_piece (dc, Dp_atom da) :: d ->
      if sa.Mplan.kind <> da.Mplan.kind then
        raise (Unsupported "atom kind mismatch across plans");
      let moves =
        if
          pair_blit_safe ~src_be:ctx.src.Encoding.big_endian
            ~dst_be:ctx.dst.Encoding.big_endian sa da
        then [ Fplan.Fm_copy { src_off = 0; dst_off = 0; len = sa.Mplan.size } ]
        else
          [
            Fplan.Fm_convert
              { src_off = 0; src_atom = sa; dst_off = 0; dst_atom = da };
          ]
      in
      fuse_seq ctx s d
        (run1 ~src_size:sa.Mplan.size ~dst_size:da.Mplan.size ~src_check:sc
           ~dst_check:dc moves
        :: acc)
  | Ts_piece (sc, Sp_bytes n) :: s, Td_piece (dc, Dp_bytes m) :: d ->
      if n <> m then raise (Unsupported "fixed byte run length mismatch");
      fuse_seq ctx s d
        (run1 ~src_size:n ~dst_size:n ~src_check:sc ~dst_check:dc
           [ Fplan.Fm_copy { src_off = 0; dst_off = 0; len = n } ]
        :: acc)
  (* a decode-side scalar array against the unrolled item run the
     encode side kept inside its chunk *)
  | ( Ts_var (Dplan.D_get_atom_array { count = Dplan.Dc_fixed n; atom = sa; _ })
      :: s,
      (Td_piece (_, Dp_atom da) :: _ as d) ) ->
      if sa.Mplan.kind <> da.Mplan.kind then
        raise (Unsupported "atom kind mismatch across plans");
      let _, d = take_atom_run n da d in
      let blit =
        pair_blit_safe ~src_be:ctx.src.Encoding.big_endian
          ~dst_be:ctx.dst.Encoding.big_endian sa da
      in
      fuse_seq ctx s d
        (Fplan.F_atom_array
           {
             count = Fplan.Fc_fixed n;
             emit_len = false;
             src_atom = sa;
             dst_atom = da;
             dst_packed = true;
             blit;
             borrow = blit && ctx.sg;
           }
        :: acc)
  (* variable-length pairs *)
  | Ts_var sop :: s, d -> fuse_var ctx sop s d acc
  | Ts_piece _ :: _, _ -> raise (Unsupported "fixed data vs. variable op")
  | [], _ -> raise (Unsupported "trailing encode-side data")

and fuse_var ctx sop stoks dtoks acc =
  match (sop, dtoks) with
  | ( Dplan.D_get_string { max_len; view = _; _ },
      Td_var (Mplan.Put_string { nul; pad; len_src; borrow; src = _; max_len = _ }) :: d ) ->
      if len_src <> None then
        raise (Unsupported "string with a separate length parameter");
      fuse_seq ctx stoks d
        (Fplan.F_string
           {
             max_len;
             src_nul = ctx.src.Encoding.string_nul;
             dst_nul = nul;
             src_pad = ctx.src.Encoding.pad_unit;
             dst_pad = pad;
             borrow;
           }
        :: acc)
  | ( Dplan.D_const_str expect,
      Td_var (Mplan.Put_const_str { s; nul; pad }) :: d ) ->
      if expect <> s then raise (Unsupported "constant key mismatch");
      (* the destination image, exactly as Stub_opt emits it *)
      let data = String.length s + if nul then 1 else 0 in
      let img = Bytes.make (4 + data + pad) '\000' in
      (if ctx.dst.Encoding.big_endian then
         Bytes.set_int32_be img 0 (Int32.of_int data)
       else Bytes.set_int32_le img 0 (Int32.of_int data));
      Bytes.blit_string s 0 img 4 (String.length s);
      fuse_seq ctx stoks d
        (Fplan.F_const_str
           {
             s;
             src_nul = ctx.src.Encoding.string_nul;
             src_pad = ctx.src.Encoding.pad_unit;
             image = Bytes.unsafe_to_string img;
           }
        :: acc)
  | ( Dplan.D_get_byteseq { count = Dplan.Dc_len _ as c; view = _; _ },
      Td_var (Mplan.Put_byteseq { pad; borrow; _ }) :: d ) ->
      fuse_seq ctx stoks d
        (Fplan.F_byteseq
           {
             count = fcount_of c;
             emit_len = true;
             src_pad = ctx.src.Encoding.pad_unit;
             dst_pad = pad;
             borrow;
           }
        :: acc)
  | ( Dplan.D_get_byteseq { count = Dplan.Dc_fixed n; view = _; _ },
      Td_var (Mplan.Put_blit { len; pad; src = _ }) :: d ) ->
      if n <> len then raise (Unsupported "fixed blit length mismatch");
      fuse_seq ctx stoks d
        (Fplan.F_blit
           {
             len;
             src_pad = ctx.src.Encoding.pad_unit;
             dst_tail = pad;
             borrow = ctx.sg;
           }
        :: acc)
  | ( Dplan.D_get_atom_array { count; atom = sa; _ },
      Td_var (Mplan.Put_atom_array { atom = da; with_len; via; _ }) :: d ) ->
      if sa.Mplan.kind <> da.Mplan.kind then
        raise (Unsupported "atom kind mismatch across plans");
      let count =
        match (count, with_len, via) with
        | Dplan.Dc_len _, true, _ -> fcount_of count
        | Dplan.Dc_fixed n, false, Mplan.Via_fixed m when n = m ->
            Fplan.Fc_fixed n
        | _ -> raise (Unsupported "scalar array count mismatch")
      in
      let blit =
        pair_blit_safe ~src_be:ctx.src.Encoding.big_endian
          ~dst_be:ctx.dst.Encoding.big_endian sa da
      in
      fuse_seq ctx stoks d
        (Fplan.F_atom_array
           {
             count;
             emit_len = with_len;
             src_atom = sa;
             dst_atom = da;
             dst_packed = false;
             blit;
             borrow = blit && ctx.sg;
           }
        :: acc)
  | Dplan.D_loop { count; ensure; elem_min; frame; _ }, d ->
      let emit_len, d =
        match d with
        | Td_var (Mplan.Put_len { via = Mplan.Via_opt; _ }) :: _ ->
            raise (Unsupported "loop vs. optional")
        | Td_var (Mplan.Put_len _) :: d' -> (true, d')
        | _ -> (false, d)
      in
      let dst_ensure, d =
        match d with
        | Td_var (Mplan.Ensure_count { unit_size; _ }) :: d' ->
            (Some unit_size, d')
        | _ -> (None, d)
      in
      let via, body, d =
        match d with
        | Td_var (Mplan.Loop { via; body; _ }) :: d' -> (via, body, d')
        | _ -> raise (Unsupported "decode loop without an encode loop")
      in
      (match (count, emit_len, via) with
      | Dplan.Dc_len _, true, (Mplan.Via_seq _ | Mplan.Via_string) -> ()
      | Dplan.Dc_fixed n, false, Mplan.Via_fixed m when n = m -> ()
      | _ -> raise (Unsupported "loop count mismatch"));
      let fbody = fuse_seq ctx (stoks_of frame.Dplan.f_ops) (dtoks_of body) [] in
      fuse_seq ctx stoks d
        (Fplan.F_loop
           {
             count = fcount_of count;
             emit_len;
             src_min = elem_min;
             src_ensure = ensure;
             dst_ensure;
             body = fbody;
           }
        :: acc)
  | Dplan.D_opt { frame; _ }, d ->
      let d =
        match d with
        | Td_var (Mplan.Put_len { via = Mplan.Via_opt; _ }) :: d' -> d'
        | _ -> raise (Unsupported "optional without an encode length word")
      in
      let body, d =
        match d with
        | Td_var (Mplan.Loop { via = Mplan.Via_opt; body; _ }) :: d' ->
            (body, d')
        | _ -> raise (Unsupported "optional without an encode loop")
      in
      let fbody = fuse_seq ctx (stoks_of frame.Dplan.f_ops) (dtoks_of body) [] in
      fuse_seq ctx stoks d (Fplan.F_opt { body = fbody } :: acc)
  | (Dplan.D_switch _ | Dplan.D_call _), _ ->
      raise (Unsupported "union/recursive root")
  | _, Td_align n :: d -> fuse_var ctx sop stoks d (Fplan.F_dst_align n :: acc)
  | _, Td_piece (c, Dp_gap n) :: d ->
      fuse_var ctx sop stoks d
        (run1 ~src_size:0 ~dst_size:n ~src_check:false ~dst_check:c
           [ Fplan.Fm_zero { dst_off = 0; len = n } ]
        :: acc)
  | _, Td_piece (c, Dp_const (a, v)) :: d ->
      fuse_var ctx sop stoks d
        (run1 ~src_size:0 ~dst_size:a.Mplan.size ~src_check:false ~dst_check:c
           [ Fplan.Fm_const { dst_off = 0; atom = a; value = v } ]
        :: acc)
  | _, _ -> raise (Unsupported "variable op vs. fixed data")

(* -- per-root compilation ------------------------------------------- *)

let rec rw_rv (rv : Mplan.rv) : Mplan.rv =
  match rv with
  | Mplan.Rparam p -> Mplan.Rparam { p with index = 0 }
  | Mplan.Rfield f -> Mplan.Rfield { f with base = rw_rv f.base }
  | Mplan.Rarm a -> Mplan.Rarm { a with base = rw_rv a.base }
  | Mplan.Rdiscrim d -> Mplan.Rdiscrim { d with base = rw_rv d.base }
  | Mplan.Ropt r -> Mplan.Ropt (rw_rv r)
  | Mplan.Rvar _ -> rv

let rewrite_root (root : Plan_compile.root) : Plan_compile.root =
  match root with
  | Plan_compile.Rvalue (rv, idx, pres) ->
      Plan_compile.Rvalue (rw_rv rv, idx, pres)
  | r -> r

(* every Rparam index a compiled plan navigates from *)
let plan_param_indexes (p : Plan_compile.plan) =
  let acc = ref [] in
  let rec rv = function
    | Mplan.Rparam { index; _ } -> acc := index :: !acc
    | Mplan.Rfield { base; _ }
    | Mplan.Rarm { base; _ }
    | Mplan.Rdiscrim { base; _ } ->
        rv base
    | Mplan.Ropt r -> rv r
    | Mplan.Rvar _ -> ()
  in
  let item = function
    | Mplan.It_atom { src; _ } | Mplan.It_bytes { src; _ } -> rv src
    | Mplan.It_const _ -> ()
  in
  let rec op = function
    | Mplan.Align _ | Mplan.Put_const_str _ -> ()
    | Mplan.Chunk { items; _ } -> List.iter item items
    | Mplan.Ensure_count { arr; _ }
    | Mplan.Put_byteseq { arr; _ }
    | Mplan.Put_atom_array { arr; _ }
    | Mplan.Put_len { arr; _ } ->
        rv arr
    | Mplan.Put_string { src; len_src; _ } ->
        rv src;
        Option.iter rv len_src
    | Mplan.Put_blit { src; _ } -> rv src
    | Mplan.Put_varhead { vh_src = r; _ } -> rv r
    | Mplan.Loop { arr; body; _ } ->
        rv arr;
        List.iter op body
    | Mplan.Switch { u; arms; default; _ } ->
        rv u;
        List.iter (fun (a : Mplan.arm) -> List.iter op a.Mplan.a_body) arms;
        Option.iter (fun (_, body) -> List.iter op body) default
    | Mplan.Call (_, r) -> rv r
  in
  List.iter op p.Plan_compile.p_ops;
  List.iter (fun (_, body) -> List.iter op body) p.Plan_compile.p_subs;
  !acc

(* ------------------------------------------------------------------ *)
(* Run coalescing                                                       *)
(* ------------------------------------------------------------------ *)

(* Adjacent runs merge into one, as adjacent chunks do: no op separates
   them, so both sides' static offsets stay valid once the second run's
   shift by the first's sizes, and one check per side covers both.  The
   destination bytes are the same, and so is the set of messages
   accepted; a merged check may only fail earlier, as [Short_buffer],
   where the two runs failed a later, smaller one. *)

let shift_fmove ~dsrc ~ddst (m : Fplan.fmove) =
  match m with
  | Fplan.Fm_copy c ->
      Fplan.Fm_copy { c with src_off = c.src_off + dsrc; dst_off = c.dst_off + ddst }
  | Fplan.Fm_convert c ->
      Fplan.Fm_convert { c with src_off = c.src_off + dsrc; dst_off = c.dst_off + ddst }
  | Fplan.Fm_check c -> Fplan.Fm_check { c with src_off = c.src_off + dsrc }
  | Fplan.Fm_const c -> Fplan.Fm_const { c with dst_off = c.dst_off + ddst }
  | Fplan.Fm_zero z -> Fplan.Fm_zero { z with dst_off = z.dst_off + ddst }

(* Contiguous copies (and contiguous zero fills) become one move: a run
   of word-by-word copies is one memcpy span. *)
let rec coalesce_moves = function
  | Fplan.Fm_copy a :: Fplan.Fm_copy b :: rest
    when b.src_off = a.src_off + a.len && b.dst_off = a.dst_off + a.len ->
      coalesce_moves (Fplan.Fm_copy { a with len = a.len + b.len } :: rest)
  | Fplan.Fm_zero a :: Fplan.Fm_zero b :: rest when b.dst_off = a.dst_off + a.len ->
      coalesce_moves (Fplan.Fm_zero { a with len = a.len + b.len } :: rest)
  | m :: rest -> m :: coalesce_moves rest
  | [] -> []

let rec merge_runs = function
  | Fplan.F_run r1 :: Fplan.F_run r2 :: rest ->
      let moves2 = List.map (shift_fmove ~dsrc:r1.src_size ~ddst:r1.dst_size) r2.moves in
      merge_runs
        (Fplan.F_run
           {
             src_size = r1.src_size + r2.src_size;
             dst_size = r1.dst_size + r2.dst_size;
             src_check = r1.src_check || r2.src_check;
             dst_check = r1.dst_check || r2.dst_check;
             moves = coalesce_moves (r1.moves @ moves2);
           }
        :: rest)
  | op :: rest -> op :: merge_runs rest
  | [] -> []

let rec coalesce ops =
  merge_runs
    (List.map
       (fun (op : Fplan.fop) ->
         match op with
         | Fplan.F_run r -> Fplan.F_run { r with moves = coalesce_moves r.moves }
         | Fplan.F_loop l -> Fplan.F_loop { l with body = coalesce l.body }
         | Fplan.F_opt o -> Fplan.F_opt { body = coalesce o.body }
         | op -> op)
       ops)

(* Alignment congruence at a root boundary: the body starts max-aligned;
   after any complete root the position is a multiple of the encoding's
   granularity (every layout advances by a multiple of it), and nothing
   stronger survives variable-length roots in general. *)
let start_for (enc : Encoding.t) i =
  if i = 0 then (8, 0) else (max enc.Encoding.granularity 1, 0)

let fused ~(src : Encoding.t) ~(dst : Encoding.t) ~mint ~named
    ?(sg = Mbuf.sg_enabled ()) ?(sg_threshold = Mbuf.borrow_threshold ())
    (droots : Dplan_compile.droot list) (roots : Plan_compile.root list) :
    Fplan.plan =
  if List.length droots <> List.length roots then
    invalid_arg "Fplan_compile.fuse: root list arity mismatch";
  let dplan_for ~start droots =
    Plan_cache.dplan ~enc:src ~mint ~named ~start ~views:sg
      ~view_threshold:sg_threshold droots
  in
  let mplan_for ~start roots =
    Plan_cache.plan ~enc:dst ~mint ~named ~start ~sg ~sg_threshold
      roots
  in
  let full_fallback () =
    {
      Fplan.f_ops =
        [
          Fplan.F_materialize
            {
              index = -1;
              dplan = dplan_for ~start:(8, 0) droots;
              mplan = mplan_for ~start:(8, 0) roots;
            };
        ];
      f_src = src;
      f_dst = dst;
    }
  in
  (* value-dependent wire formats carry no fixed per-atom layout to pair
     token streams over: any self-describing side degrades the whole
     message to one decode + re-encode pair *)
  if
    (not (enabled ()))
    || src.Encoding.var <> None
    || dst.Encoding.var <> None
  then full_fallback ()
  else
    let ctx = { src; dst; sg } in
    let fuse_root i droot root =
      let root = rewrite_root root in
      let dp = dplan_for ~start:(start_for src i) [ droot ] in
      let mp = mplan_for ~start:(start_for dst i) [ root ] in
      if List.exists (fun ix -> ix <> 0) (plan_param_indexes mp) then
        raise Cross_root;
      if dp.Dplan.d_subs <> [] || mp.Plan_compile.p_subs <> [] then
        [ Fplan.F_materialize { index = i; dplan = dp; mplan = mp } ]
      else
        try fuse_seq ctx (stoks_of dp.Dplan.d_ops) (dtoks_of mp.Plan_compile.p_ops) []
        with Unsupported _ ->
          [ Fplan.F_materialize { index = i; dplan = dp; mplan = mp } ]
    in
    try
      let ops =
        List.concat
          (List.mapi
             (fun i (droot, root) -> fuse_root i droot root)
             (List.combine droots roots))
      in
      { Fplan.f_ops = coalesce ops; f_src = src; f_dst = dst }
    with Cross_root -> full_fallback ()

(* verified, under FLICK_VERIFY_PLANS, as Plan_cache verifies the plans
   it fuses *)
let fuse ~src ~dst ~mint ~named ?sg ?sg_threshold droots roots =
  Plan_verify.checked ~side:"forward" Plan_verify.check_fplan
    (fused ~src ~dst ~mint ~named ?sg ?sg_threshold droots roots)
