(* Peephole optimizer over marshal plans.  Every rewrite is
   byte-preserving: the optimized plan writes exactly the bytes of the
   original (Mbuf.ensure / flick_ensure only reserve capacity, so
   checking earlier or for more is invisible on the wire).  The
   differential qcheck suites in test/test_peephole.ml pin this. *)

type stats = {
  mutable chunks_merged : int;
  mutable aligns_removed : int;
  mutable loops_fused : int;
  mutable ensures_hoisted : int;
  mutable dead_removed : int;
  mutable heads_narrowed : int;
}

let fresh_stats () =
  {
    chunks_merged = 0;
    aligns_removed = 0;
    loops_fused = 0;
    ensures_hoisted = 0;
    dead_removed = 0;
    heads_narrowed = 0;
  }

let rewrites st =
  st.chunks_merged + st.aligns_removed + st.loops_fused + st.ensures_hoisted
  + st.dead_removed + st.heads_narrowed

(* Which rewrite classes the engine may apply.  The pass manager
   ({!Pass}) runs the engine once per class so each registered pass is
   observable on its own; [all_rewrites] is the historical monolithic
   behavior (still what {!optimize} does). *)
type rewrite_set = {
  rw_coalesce : bool;
  rw_fuse : bool;
  rw_hoist : bool;
  rw_dead : bool;
  rw_narrow : bool;
}

let all_rewrites =
  {
    rw_coalesce = true;
    rw_fuse = true;
    rw_hoist = true;
    rw_dead = true;
    rw_narrow = true;
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let shift_item delta (it : Mplan.item) =
  match it with
  | Mplan.It_atom a -> Mplan.It_atom { a with off = a.off + delta }
  | Mplan.It_bytes b -> Mplan.It_bytes { b with off = b.off + delta }
  | Mplan.It_const c -> Mplan.It_const { c with off = c.off + delta }

(* ------------------------------------------------------------------ *)
(* Ensure hoisting: static bound on how far one execution of an op can
   advance the buffer position.  None = unbounded (dynamic lengths).    *)
(* ------------------------------------------------------------------ *)

let rec bounded_advance (op : Mplan.op) : int option =
  match op with
  | Mplan.Align a -> if is_pow2 a then Some (a - 1) else None
  | Mplan.Chunk { size; _ } -> Some size
  | Mplan.Ensure_count _ -> Some 0
  | Mplan.Put_const_str { s; nul; pad } ->
      Some (4 + String.length s + (if nul then 1 else 0) + pad)
  | Mplan.Put_blit { len; pad; _ } -> Some (len + pad)
  | Mplan.Put_len _ -> Some 7 (* align 4 (≤ 3 bytes) + the 4-byte count;
                                 var encodings' worst length head is 5 *)
  | Mplan.Put_varhead { vh_worst; _ } -> Some vh_worst
  | Mplan.Loop { via = Mplan.Via_fixed n; body; _ } ->
      Option.map (fun u -> n * u) (bounded_advance_ops body)
  | Mplan.Switch { arms; default; _ } ->
      let bodies =
        List.map (fun (a : Mplan.arm) -> a.Mplan.a_body) arms
        @ match default with None -> [] | Some (_, b) -> [ b ]
      in
      List.fold_left
        (fun acc body ->
          match (acc, bounded_advance_ops body) with
          | Some m, Some u -> Some (max m u)
          | _, _ -> None)
        (Some 0) bodies
  | Mplan.Put_string _ | Mplan.Put_byteseq _ | Mplan.Put_atom_array _
  | Mplan.Loop _ | Mplan.Call _ ->
      None

and bounded_advance_ops ops =
  List.fold_left
    (fun acc op ->
      match (acc, bounded_advance op) with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) ops

let rec has_checked_chunk ops =
  List.exists
    (fun (op : Mplan.op) ->
      match op with
      | Mplan.Chunk { check; _ } -> check
      | Mplan.Put_varhead { vh_check; _ } -> vh_check
      | Mplan.Loop { body; _ } -> has_checked_chunk body
      | Mplan.Switch { arms; default; _ } ->
          List.exists (fun (a : Mplan.arm) -> has_checked_chunk a.Mplan.a_body) arms
          || (match default with
             | None -> false
             | Some (_, b) -> has_checked_chunk b)
      | _ -> false)
    ops

(* After hoisting one reservation that covers the whole loop, the
   chunks inside no longer need their own checks. *)
let rec clear_checks ops =
  List.map
    (fun (op : Mplan.op) ->
      match op with
      | Mplan.Chunk { size; align; items; check = _ } ->
          Mplan.Chunk { size; align; items; check = false }
      | Mplan.Put_varhead vh -> Mplan.Put_varhead { vh with vh_check = false }
      | Mplan.Loop { arr; via; var; body } ->
          Mplan.Loop { arr; via; var; body = clear_checks body }
      | Mplan.Switch { u; discrim_atom; arms; default; union_field; discrim_field }
        ->
          Mplan.Switch
            {
              u;
              discrim_atom;
              union_field;
              discrim_field;
              arms =
                List.map
                  (fun (a : Mplan.arm) ->
                    { a with Mplan.a_body = clear_checks a.Mplan.a_body })
                  arms;
              default = Option.map (fun (m, b) -> (m, clear_checks b)) default;
            }
      | op -> op)
    ops

(* ------------------------------------------------------------------ *)
(* Loop fusion guard                                                    *)
(* ------------------------------------------------------------------ *)

(* A per-element store may become Put_atom_array only when neither
   consumer would insert alignment the loop body did not have: atoms of
   alignment ≤ 1, or the 32-bit-integer fast path, whose positions the
   plan compiler only makes alignment-free when already aligned. *)
let fusable_atom (atom : Mplan.atom) =
  atom.Mplan.align <= 1
  ||
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kint { bits; _ }, 4 -> bits <= 32
  | _, _ -> false

(* ------------------------------------------------------------------ *)
(* Reservation narrowing                                                *)
(* ------------------------------------------------------------------ *)

(* A variable-width header whose value is a compile-time constant has a
   statically known wire image (the compiler records it).  Narrowing
   replaces the Var reservation with a Fixed chunk of per-byte constant
   stores, which chunk coalescing then merges with its neighbors —
   e.g. an enum discriminator <= 127 becomes a one-byte fixint inside
   the surrounding chunk, re-enabling the single-check static run. *)

let u8_atom : Mplan.atom =
  { Mplan.kind = Encoding.Kint { bits = 8; signed = false }; size = 1; align = 1 }

let const_byte_items img =
  List.init (String.length img) (fun i ->
      Mplan.It_const
        { off = i; atom = u8_atom; value = Int64.of_int (Char.code img.[i]) })

let const_byte_ditems img =
  List.init (String.length img) (fun i ->
      Dplan.Dit_const
        { off = i; atom = u8_atom; value = Int64.of_int (Char.code img.[i]) })

(* ------------------------------------------------------------------ *)
(* The rewrite engine                                                   *)
(* ------------------------------------------------------------------ *)

let droppable (op : Mplan.op) =
  match op with
  | Mplan.Align a -> a <= 1 (* Mbuf.align / flick_align are no-ops *)
  | Mplan.Chunk { size = 0; items = []; _ } -> true
  | _ -> false

let rec optimize_ops rw st ops =
  merge rw st (List.concat_map (optimize_op rw st) ops)

and optimize_op rw st (op : Mplan.op) : Mplan.op list =
  match op with
  | Mplan.Loop { arr; via; var; body } -> (
      let body = optimize_ops rw st body in
      match (body, via) with
      (* (b) gapless scalar loop -> one tight array blit; the engine and
         the C emitter both self-ensure in Put_atom_array *)
      | ( [
            Mplan.Chunk
              {
                size;
                items = [ Mplan.It_atom { off = 0; atom; src = Mplan.Rvar v } ];
                check = _;
                align = _;
              };
          ],
          (Mplan.Via_seq _ | Mplan.Via_fixed _) )
        when rw.rw_fuse && v = var && size = atom.Mplan.size
             && fusable_atom atom ->
          st.loops_fused <- st.loops_fused + 1;
          [ Mplan.Put_atom_array { arr; via; atom; with_len = false; max_len = None } ]
      (* (c) every iteration advances at most [u] bytes: one reservation
         of len * u outside the loop covers every chunk inside *)
      | _, (Mplan.Via_seq _ | Mplan.Via_fixed _)
        when rw.rw_hoist && has_checked_chunk body -> (
          match bounded_advance_ops body with
          | Some u when u > 0 ->
              st.ensures_hoisted <- st.ensures_hoisted + 1;
              [
                Mplan.Ensure_count { arr; via; unit_size = u };
                Mplan.Loop { arr; via; var; body = clear_checks body };
              ]
          | _ -> [ Mplan.Loop { arr; via; var; body } ])
      | _, _ -> [ Mplan.Loop { arr; via; var; body } ])
  | Mplan.Switch { u; discrim_atom; arms; default; union_field; discrim_field }
    ->
      [
        Mplan.Switch
          {
            u;
            discrim_atom;
            union_field;
            discrim_field;
            arms =
              List.map
                (fun (a : Mplan.arm) ->
                  { a with Mplan.a_body = optimize_ops rw st a.Mplan.a_body })
                arms;
            default =
              Option.map (fun (m, b) -> (m, optimize_ops rw st b)) default;
          };
      ]
  | Mplan.Put_varhead { vh_image = Some img; vh_check; _ } when rw.rw_narrow ->
      st.heads_narrowed <- st.heads_narrowed + 1;
      [
        Mplan.Chunk
          {
            size = String.length img;
            align = 1;
            items = const_byte_items img;
            check = vh_check;
          };
      ]
  | op -> [ op ]

(* Adjacent-op rewriting, run to a fixpoint (each rewrite shortens the
   list, so this terminates). *)
and merge rw st = function
  | [] -> []
  | [ op ] when rw.rw_dead && droppable op ->
      st.dead_removed <- st.dead_removed + 1;
      []
  | [ op ] -> [ op ]
  | op1 :: op2 :: rest -> (
      match rewrite_pair rw st op1 op2 with
      | Some ops -> merge rw st (ops @ rest)
      | None -> op1 :: merge rw st (op2 :: rest))

and rewrite_pair rw st (op1 : Mplan.op) (op2 : Mplan.op) :
    Mplan.op list option =
  if rw.rw_dead && droppable op1 then (
    st.dead_removed <- st.dead_removed + 1;
    Some [ op2 ])
  else if rw.rw_dead && droppable op2 then (
    st.dead_removed <- st.dead_removed + 1;
    Some [ op1 ])
  else
    match (op1, op2) with
    (* consecutive power-of-two alignments: the larger one implies the
       smaller, in either order *)
    | Mplan.Align a, Mplan.Align b
      when rw.rw_coalesce && is_pow2 a && is_pow2 b ->
        st.aligns_removed <- st.aligns_removed + 1;
        Some [ Mplan.Align (max a b) ]
    (* (a) adjacent chunks become one: offsets of the second shift by the
       first's size, one capacity check covers both *)
    | Mplan.Chunk c1, Mplan.Chunk c2 when rw.rw_coalesce ->
        st.chunks_merged <- st.chunks_merged + 1;
        Some
          [
            Mplan.Chunk
              {
                size = c1.size + c2.size;
                align = c1.align;
                items = c1.items @ List.map (shift_item c1.size) c2.items;
                check = c1.check || c2.check;
              };
          ]
    (* a reservation made redundant by a fused array op that reserves
       for itself (compiler invariant: an Ensure_count covers exactly
       the array op that follows it) — part of the fusion pass, since
       only fusion creates the [Put_atom_array] that triggers it *)
    | ( Mplan.Ensure_count { arr; via; unit_size },
        Mplan.Put_atom_array { arr = arr2; via = via2; atom; with_len = false; _ }
      )
      when rw.rw_fuse && arr = arr2 && via = via2
           && unit_size = atom.Mplan.size ->
        st.dead_removed <- st.dead_removed + 1;
        Some [ op2 ]
    | _, _ -> None

let optimize_with rw ?stats ops =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  optimize_ops rw st ops

let optimize ?stats ops = optimize_with all_rewrites ?stats ops

(* ------------------------------------------------------------------ *)
(* The decode-plan pass                                                 *)
(* ------------------------------------------------------------------ *)

(* Same rewrites over Dplan, with one crucial difference: on the decode
   side a bounds check is [Mbuf.need], which *raises* when the bytes are
   not there, so a hoisted loop reservation must cover *exactly* the
   bytes the body consumes — an upper bound (fine for encode's [ensure],
   which only reserves capacity) could reject well-formed messages.
   [exact_advance] therefore returns the advance only when it is the
   same for every run of the op. *)

let shift_ditem delta (it : Dplan.ditem) =
  match it with
  | Dplan.Dit_atom a -> Dplan.Dit_atom { a with off = a.off + delta }
  | Dplan.Dit_bytes b -> Dplan.Dit_bytes { b with off = b.off + delta }
  | Dplan.Dit_const c -> Dplan.Dit_const { c with off = c.off + delta }

let rec exact_advance_op (op : Dplan.dop) : int option =
  match op with
  | Dplan.D_align a -> if a <= 1 then Some 0 else None
  | Dplan.D_chunk { size; _ } -> Some size
  | Dplan.D_loop { count = Dplan.Dc_fixed n; frame; _ } ->
      Option.map (fun u -> n * u) (exact_advance frame.Dplan.f_ops)
  | Dplan.D_get_atom_array { count = Dplan.Dc_fixed n; atom; var = false; _ }
    when atom.Mplan.align <= 1 ->
      Some (n * atom.Mplan.size)
  | Dplan.D_get_string _ | Dplan.D_const_str _ | Dplan.D_get_byteseq _
  | Dplan.D_get_atom_array _ | Dplan.D_loop _ | Dplan.D_opt _
  | Dplan.D_switch _ | Dplan.D_call _ | Dplan.D_get_varhead _ ->
      None

and exact_advance ops =
  List.fold_left
    (fun acc op ->
      match (acc, exact_advance_op op) with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) ops

let rec d_has_checked_chunk ops =
  List.exists
    (fun (op : Dplan.dop) ->
      match op with
      | Dplan.D_chunk { check; _ } -> check
      | Dplan.D_loop { frame; _ } | Dplan.D_opt { frame; _ } ->
          d_has_checked_chunk frame.Dplan.f_ops
      | Dplan.D_switch { arms; default; _ } ->
          List.exists
            (fun (a : Dplan.darm) ->
              d_has_checked_chunk a.Dplan.d_frame.Dplan.f_ops)
            arms
          || (match default with
             | None -> false
             | Some f -> d_has_checked_chunk f.Dplan.f_ops)
      | _ -> false)
    ops

(* Under a hoisted reservation the bytes are already pulled up and
   verified present; interior chunks (including those of nested fixed
   loops — the only op kinds [exact_advance] admits) run check-free. *)
let rec clear_dchecks ops =
  List.map
    (fun (op : Dplan.dop) ->
      match op with
      | Dplan.D_chunk { size; items; check = _ } ->
          Dplan.D_chunk { size; items; check = false }
      | Dplan.D_loop l ->
          Dplan.D_loop
            { l with frame = { l.frame with Dplan.f_ops = clear_dchecks l.frame.Dplan.f_ops } }
      | op -> op)
    ops

let d_droppable (op : Dplan.dop) =
  match op with
  | Dplan.D_align a -> a <= 1
  | Dplan.D_chunk { size = 0; items = []; _ } -> true
  | _ -> false

let rec optimize_dops_st rw st ops =
  merge_d rw st (List.concat_map (optimize_dop rw st) ops)

and optimize_dframe rw st frame =
  { frame with Dplan.f_ops = optimize_dops_st rw st frame.Dplan.f_ops }

(* A scalar loop fuses into one D_get_atom_array only when the array op
   reads the same bytes (no per-element re-alignment, so align <= 1)
   and builds the same value shape (the array op builds Vint_array for
   Kint bits <= 32 where the loop builds an array of Vint, so integer
   loops stay loops — the compiler lowers those to array ops directly
   anyway). *)
and d_fusable_atom (atom : Mplan.atom) =
  atom.Mplan.align <= 1
  && (match atom.Mplan.kind with
     | Encoding.Kint { bits; _ } -> bits > 32
     | Encoding.Kbool | Encoding.Kchar | Encoding.Kfloat _ -> true)

and optimize_dop rw st (op : Dplan.dop) : Dplan.dop list =
  match op with
  | Dplan.D_loop l -> (
      let frame = optimize_dframe rw st l.frame in
      match frame with
      | {
       Dplan.f_nslots = 1;
       f_ops =
         [
           Dplan.D_chunk
             { size; items = [ Dplan.Dit_atom { off = 0; atom; slot = 0 } ]; _ };
         ];
       f_shape = Dplan.Sh_slot 0;
      }
        when rw.rw_fuse && size = atom.Mplan.size && d_fusable_atom atom ->
          (* one scalar load covering the whole stride: the loop IS an
             atom array read (decode twin of the encode loop-blit
             fusion) *)
          st.loops_fused <- st.loops_fused + 1;
          [ Dplan.D_get_atom_array { count = l.count; atom; var = false; slot = l.slot } ]
      | _ when l.ensure <> None || (not rw.rw_hoist)
               || not (d_has_checked_chunk frame.Dplan.f_ops) ->
          [ Dplan.D_loop { l with frame } ]
      | _ -> (
          match exact_advance frame.Dplan.f_ops with
          | Some u when u > 0 ->
              st.ensures_hoisted <- st.ensures_hoisted + 1;
              [
                Dplan.D_loop
                  {
                    l with
                    ensure = Some u;
                    frame = { frame with Dplan.f_ops = clear_dchecks frame.Dplan.f_ops };
                  };
              ]
          | _ -> [ Dplan.D_loop { l with frame } ]))
  | Dplan.D_opt { frame; slot } ->
      [ Dplan.D_opt { frame = optimize_dframe rw st frame; slot } ]
  | Dplan.D_switch { discrim_atom; arms; default; slot } ->
      [
        Dplan.D_switch
          {
            discrim_atom;
            arms =
              List.map
                (fun (a : Dplan.darm) ->
                  { a with
                    Dplan.d_frame = optimize_dframe rw st a.Dplan.d_frame
                  })
                arms;
            default = Option.map (optimize_dframe rw st) default;
            slot;
          };
      ]
  (* decode twin of constant-header narrowing: the expected image
     becomes a byte-compare chunk; the var readers reject non-minimal
     forms, so the accepted message set is unchanged *)
  | Dplan.D_get_varhead { vh_image = Some img; vh_slot = None; _ }
    when rw.rw_narrow ->
      st.heads_narrowed <- st.heads_narrowed + 1;
      [
        Dplan.D_chunk
          { size = String.length img; items = const_byte_ditems img; check = true };
      ]
  | op -> [ op ]

and merge_d rw st = function
  | [] -> []
  | [ op ] when rw.rw_dead && d_droppable op ->
      st.dead_removed <- st.dead_removed + 1;
      []
  | [ op ] -> [ op ]
  | op1 :: op2 :: rest -> (
      match rewrite_dpair rw st op1 op2 with
      | Some ops -> merge_d rw st (ops @ rest)
      | None -> op1 :: merge_d rw st (op2 :: rest))

and rewrite_dpair rw st (op1 : Dplan.dop) (op2 : Dplan.dop) :
    Dplan.dop list option =
  if rw.rw_dead && d_droppable op1 then (
    st.dead_removed <- st.dead_removed + 1;
    Some [ op2 ])
  else if rw.rw_dead && d_droppable op2 then (
    st.dead_removed <- st.dead_removed + 1;
    Some [ op1 ])
  else
    match (op1, op2) with
    | Dplan.D_align a, Dplan.D_align b
      when rw.rw_coalesce && is_pow2 a && is_pow2 b ->
        st.aligns_removed <- st.aligns_removed + 1;
        Some [ Dplan.D_align (max a b) ]
    (* adjacent chunks: one [need] covers both; merging never changes
       which messages decode (the total byte requirement is identical,
       only checked earlier) *)
    | Dplan.D_chunk c1, Dplan.D_chunk c2 when rw.rw_coalesce ->
        st.chunks_merged <- st.chunks_merged + 1;
        Some
          [
            Dplan.D_chunk
              {
                size = c1.size + c2.size;
                items = c1.items @ List.map (shift_ditem c1.size) c2.items;
                check = c1.check || c2.check;
              };
          ]
    | _, _ -> None

let optimize_dops_with rw ?stats ops =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  optimize_dops_st rw st ops

let optimize_dops ?stats ops = optimize_dops_with all_rewrites ?stats ops

let optimize_dplan_with rw ?stats (plan : Dplan.plan) =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  {
    plan with
    Dplan.d_ops = optimize_dops_st rw st plan.Dplan.d_ops;
    d_subs =
      List.map
        (fun (name, frame) -> (name, optimize_dframe rw st frame))
        plan.Dplan.d_subs;
  }

let optimize_dplan ?stats plan = optimize_dplan_with all_rewrites ?stats plan

let optimize_plan_with rw ?stats (plan : Plan_compile.plan) =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  {
    Plan_compile.p_ops = optimize_ops rw st plan.Plan_compile.p_ops;
    p_subs =
      List.map
        (fun (name, ops) -> (name, optimize_ops rw st ops))
        plan.Plan_compile.p_subs;
  }

let optimize_plan ?stats plan = optimize_plan_with all_rewrites ?stats plan

(* ------------------------------------------------------------------ *)
(* Forward-plan rewrites                                                *)
(* ------------------------------------------------------------------ *)

(* Same contract as the plan rewrites above: destination bytes are
   preserved exactly, and the accepted message set is unchanged — only
   check timing may move earlier (the decode-side caveat applies). *)

let shift_fmove ~dsrc ~ddst (m : Fplan.fmove) =
  match m with
  | Fplan.Fm_copy c ->
      Fplan.Fm_copy
        { c with src_off = c.src_off + dsrc; dst_off = c.dst_off + ddst }
  | Fplan.Fm_convert c ->
      Fplan.Fm_convert
        { c with src_off = c.src_off + dsrc; dst_off = c.dst_off + ddst }
  | Fplan.Fm_check c -> Fplan.Fm_check { c with src_off = c.src_off + dsrc }
  | Fplan.Fm_const c -> Fplan.Fm_const { c with dst_off = c.dst_off + ddst }
  | Fplan.Fm_zero z -> Fplan.Fm_zero { z with dst_off = z.dst_off + ddst }

(* Contiguous same-delta copies (and contiguous zero fills) become one
   move — this is what turns a fused chunk of word-by-word copies into
   a single memcpy span. *)
let rec coalesce_fmoves st = function
  | Fplan.Fm_copy a :: Fplan.Fm_copy b :: rest
    when b.src_off = a.src_off + a.len && b.dst_off = a.dst_off + a.len ->
      st.chunks_merged <- st.chunks_merged + 1;
      coalesce_fmoves st (Fplan.Fm_copy { a with len = a.len + b.len } :: rest)
  | Fplan.Fm_zero a :: Fplan.Fm_zero b :: rest
    when b.dst_off = a.dst_off + a.len ->
      st.chunks_merged <- st.chunks_merged + 1;
      coalesce_fmoves st (Fplan.Fm_zero { a with len = a.len + b.len } :: rest)
  | m :: rest -> m :: coalesce_fmoves st rest
  | [] -> []

(* Adjacent runs merge like adjacent chunks: no op separates them, so
   both sides' static offsets stay valid after shifting. *)
let rec fwd_merge st = function
  | Fplan.F_run r1 :: Fplan.F_run r2 :: rest ->
      st.chunks_merged <- st.chunks_merged + 1;
      let moves2 =
        List.map (shift_fmove ~dsrc:r1.src_size ~ddst:r1.dst_size) r2.moves
      in
      fwd_merge st
        (Fplan.F_run
           {
             src_size = r1.src_size + r2.src_size;
             dst_size = r1.dst_size + r2.dst_size;
             src_check = r1.src_check || r2.src_check;
             dst_check = r1.dst_check || r2.dst_check;
             moves = coalesce_fmoves st (r1.moves @ moves2);
           }
        :: rest)
  | op :: rest -> op :: fwd_merge st rest
  | [] -> []

let rec fwd_coalesce_ops st ops =
  fwd_merge st
    (List.map
       (fun (op : Fplan.fop) ->
         match op with
         | Fplan.F_run r ->
             Fplan.F_run { r with moves = coalesce_fmoves st r.moves }
         | Fplan.F_loop l -> Fplan.F_loop { l with body = fwd_coalesce_ops st l.body }
         | Fplan.F_opt o -> Fplan.F_opt { body = fwd_coalesce_ops st o.body }
         | op -> op)
       ops)

let forward_coalesce ?stats ops =
  let st = match stats with Some st -> st | None -> fresh_stats () in
  fwd_coalesce_ops st ops
