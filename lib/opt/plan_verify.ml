(* Structural verifier for marshal (Mplan) and unmarshal (Dplan)
   programs.

   The plan compilers maintain invariants that no OCaml type enforces:
   chunk items sit at monotone, non-overlapping offsets inside their
   chunk; a chunk whose capacity check was dropped
   is only legal under a reservation that covers it; a hoisted decode
   reservation must equal the frame's exact advance (decode checks
   *raise*, so an upper bound would reject well-formed messages), and a
   loop's element minimum may not exceed it; loop
   variables are referenced only in scope; decode slots are written
   once and read only after being written; Call/D_call targets resolve.

   The verifier re-derives each invariant independently of the
   compilers (e.g. it has its own exact-advance computation), so a bug
   in a compiler cannot hide behind the same bug in its checker.  The
   checks are pure and raise nothing: the result is [Ok ()] or [Error e]
   with a path into the plan.  [checked] runs one on each compiled plan
   when FLICK_VERIFY_PLANS=1 is set. *)

type error = { ev_path : string; ev_msg : string }

let error_to_string e = Printf.sprintf "%s: %s" e.ev_path e.ev_msg

exception Fail of error

let failv path fmt =
  Printf.ksprintf (fun m -> raise (Fail { ev_path = path; ev_msg = m })) fmt

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* ------------------------------------------------------------------ *)
(* Shared atom / rv checks                                              *)
(* ------------------------------------------------------------------ *)

let check_atom path (a : Mplan.atom) =
  if a.Mplan.size < 1 || a.Mplan.size > 16 then
    failv path "atom size %d out of range" a.Mplan.size;
  if not (is_pow2 a.Mplan.align) then
    failv path "atom alignment %d is not a power of two" a.Mplan.align

(* Loop variables ([Rvar]) must be bound by an enclosing [Loop]. *)
let rec check_rv path vars (rv : Mplan.rv) =
  match rv with
  | Mplan.Rparam _ -> ()
  | Mplan.Rvar v ->
      if not (List.mem v vars) then
        failv path "loop variable v%d referenced out of scope" v
  | Mplan.Rfield { base; _ }
  | Mplan.Rarm { base; _ }
  | Mplan.Ropt base
  | Mplan.Rdiscrim { base; _ } ->
      check_rv path vars base

(* ------------------------------------------------------------------ *)
(* Encode plans                                                         *)
(* ------------------------------------------------------------------ *)

(* Static chunk layout: offsets monotone (no overlapping stores), every
   item inside the chunk's span, extents consistent with atom sizes and
   blit lengths + padding. *)
let check_chunk_items path ~vars ~size items =
  let _end =
    List.fold_left
      (fun prev_end (it : Mplan.item) ->
        let off, extent =
          match it with
          | Mplan.It_atom { off; atom; src } ->
              check_atom path atom;
              check_rv path vars src;
              (off, atom.Mplan.size)
          | Mplan.It_bytes { off; len; pad; src } ->
              if len < 0 then failv path "byte run with negative length %d" len;
              if pad < 0 then failv path "byte run with negative padding %d" pad;
              check_rv path vars src;
              (off, len + pad)
          | Mplan.It_const { off; atom; _ } ->
              check_atom path atom;
              (off, atom.Mplan.size)
        in
        if off < prev_end then
          failv path
            "item at offset %d overlaps the previous item (ends at %d): \
             offsets not monotone"
            off prev_end;
        if off + extent > size then
          failv path "item [%d, %d) extends past the chunk size %d" off
            (off + extent) size;
        off + extent)
      0 items
  in
  ()

(* [covered] is true inside a loop whose bytes are pre-reserved — by an
   [Ensure_count] immediately before the [Loop] (the shape the compiler
   emits) — and propagates into nested loops and switch arms, as the
   compiler's covered state does.
   The central store-safety invariant: a chunk that skips its own
   capacity check ([check = false]) must be covered (size-0 chunks are
   exempt: they write nothing). *)
let rec check_ops path ~subs ~covered ~vars ops =
  let check_op i prev (op : Mplan.op) =
    let path = Printf.sprintf "%s[%d]" path i in
    match op with
    | Mplan.Align a ->
        if not (is_pow2 a) then
          failv path "alignment %d is not a power of two" a
    | Mplan.Chunk { size; align; items; check } ->
        if size < 0 then failv path "chunk with negative size %d" size;
        if align < 1 then failv path "chunk alignment %d < 1" align;
        if (not check) && (not covered) && size > 0 then
          failv path
            "chunk skips its capacity check outside any covering \
             reservation (dropped ensure)";
        check_chunk_items path ~vars ~size items
    | Mplan.Put_varhead { vh_kind = _; vh_worst; vh_check; vh_src } ->
        if vh_worst < 1 || vh_worst > 9 then
          failv path "variable header worst-case %d out of range" vh_worst;
        if (not vh_check) && not covered then
          failv path
            "variable header skips its worst-case reservation outside any \
             covering reservation (dropped ensure)";
        check_rv path vars vh_src
    | Mplan.Ensure_count { arr; via = _; unit_size } ->
        if unit_size <= 0 then
          failv path "reservation with non-positive unit size %d" unit_size;
        check_rv path vars arr
    | Mplan.Put_const_str { pad; _ } ->
        if pad < 0 then failv path "negative padding %d" pad
    | Mplan.Put_string { src; len_src; pad; _ } ->
        if pad < 0 then failv path "negative padding unit %d" pad;
        check_rv path vars src;
        Option.iter (check_rv path vars) len_src
    | Mplan.Put_byteseq { arr; pad; _ } ->
        if pad < 0 then failv path "negative padding unit %d" pad;
        check_rv path vars arr
    | Mplan.Put_atom_array { arr; atom; _ } ->
        check_atom path atom;
        check_rv path vars arr
    | Mplan.Put_blit { src; len; pad } ->
        if len < 0 then failv path "blit with negative length %d" len;
        if pad < 0 then failv path "blit with negative padding %d" pad;
        check_rv path vars src
    | Mplan.Put_len { arr; _ } -> check_rv path vars arr
    | Mplan.Loop { arr; via = _; var; body } ->
        check_rv path vars arr;
        if List.mem var vars then
          failv path "loop variable v%d shadows an enclosing loop's" var;
        let covered =
          covered
          ||
          (* pre-reserved iff the loop directly follows its reservation —
             and the reservation must be big enough: whenever the body's
             per-iteration advance has a static bound, the unit size must
             meet it (a smaller unit is exactly the under-reservation
             that lets unchecked stores run off the chunk).  An unbounded
             body is accepted: the compiler sizes those from the type's
             [max_len] bound, which the plan no longer carries. *)
          match prev with
          | Some (Mplan.Ensure_count { arr = e_arr; unit_size; _ })
            when e_arr = arr ->
              (match Plan_compile.bounded_advance_ops body with
              | Some u when u > unit_size ->
                  failv path
                    "loop reservation of %d bytes/element under-covers a \
                     worst-case per-element advance of %d"
                    unit_size u
              | _ -> ());
              true
          | _ -> false
        in
        check_ops (path ^ ".loop") ~subs ~covered ~vars:(var :: vars) body
    | Mplan.Switch { u; arms; default; _ } ->
        check_rv path vars u;
        List.iter
          (fun (a : Mplan.arm) ->
            check_ops
              (Printf.sprintf "%s.arm(%s)" path a.Mplan.a_member)
              ~subs ~covered ~vars a.Mplan.a_body)
          arms;
        (match default with
        | None -> ()
        | Some (m, b) ->
            check_ops
              (Printf.sprintf "%s.default(%s)" path m)
              ~subs ~covered ~vars b)
    | Mplan.Call (name, rv) ->
        if not (List.mem name subs) then
          failv path "call to undefined marshal subroutine %S" name;
        check_rv path vars rv
  in
  ignore
    (List.fold_left
       (fun (i, prev) op ->
         check_op i prev op;
         (i + 1, Some op))
       (0, None) ops)

let check_plan (plan : Plan_compile.plan) =
  let subs = List.map fst plan.Plan_compile.p_subs in
  try
    check_ops "ops" ~subs ~covered:false ~vars:[] plan.Plan_compile.p_ops;
    List.iter
      (fun (name, ops) ->
        check_ops
          (Printf.sprintf "subs(%s)" name)
          ~subs ~covered:false ~vars:[] ops)
      plan.Plan_compile.p_subs;
    Ok ()
  with Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Decode plans                                                         *)
(* ------------------------------------------------------------------ *)

(* Independent re-derivation of the decode hoisting bound: the exact
   number of bytes one run of the ops consumes, or None when it is data
   dependent.  Must agree with a [D_loop]'s [ensure] annotation. *)
let rec d_exact_advance_op (op : Dplan.dop) : int option =
  match op with
  | Dplan.D_align a -> if a <= 1 then Some 0 else None
  | Dplan.D_chunk { size; _ } -> Some size
  | Dplan.D_loop { count = Dplan.Dc_fixed n; frame; _ } ->
      Option.map (fun u -> n * u) (d_exact_advance frame.Dplan.f_ops)
  | Dplan.D_get_atom_array { count = Dplan.Dc_fixed n; atom; var = false; _ }
    when atom.Mplan.align <= 1 ->
      Some (n * atom.Mplan.size)
  | _ -> None

and d_exact_advance ops =
  List.fold_left
    (fun acc op ->
      match (acc, d_exact_advance_op op) with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) ops

(* A loop checks its count at [min] bytes per element before it
   allocates, so a minimum above what an element really takes rejects
   well-formed messages. *)
let check_min path ~what min exact =
  if min < 0 then failv path "negative element minimum %d" min;
  match exact with
  | Some v when min > v ->
      failv path
        "element minimum of %d bytes exceeds the %d bytes each run of the %s \
         consumes"
        min v what
  | _ -> ()

let check_dcount path (c : Dplan.dcount) =
  match c with
  | Dplan.Dc_fixed n ->
      if n < 0 then failv path "fixed count %d is negative" n
  | Dplan.Dc_len { min_len; max_len; _ } -> (
      if min_len < 0 then failv path "negative minimum length %d" min_len;
      match max_len with
      | Some m when m < min_len ->
          failv path "length bounds inverted: min %d > max %d" min_len m
      | _ -> ())

(* One decoding scope.  Slot discipline: every op (and chunk item)
   writes its slot exactly once, slots lie inside the frame, and the
   shape tree reads only slots some op has written. *)
let rec check_frame path ~subs ~covered (f : Dplan.frame) =
  let written = Hashtbl.create 8 in
  let write path slot =
    if slot < 0 || slot >= f.Dplan.f_nslots then
      failv path "slot %d outside the frame's %d slots" slot f.Dplan.f_nslots;
    if Hashtbl.mem written slot then
      failv path "slot %d written twice" slot;
    Hashtbl.add written slot ()
  in
  let check_op i (op : Dplan.dop) =
    let path = Printf.sprintf "%s[%d]" path i in
    match op with
    | Dplan.D_align a ->
        if a >= 2 && not (is_pow2 a) then
          failv path "alignment %d is not a power of two" a
    | Dplan.D_chunk { size; items; check } ->
        if size < 0 then failv path "chunk with negative size %d" size;
        if (not check) && (not covered) && size > 0 then
          failv path
            "chunk skips its bounds check outside any hoisted reservation \
             (dropped need)";
        let _end =
          List.fold_left
            (fun prev_end (it : Dplan.ditem) ->
              let off, extent =
                match it with
                | Dplan.Dit_atom { off; atom; slot } ->
                    check_atom path atom;
                    write path slot;
                    (off, atom.Mplan.size)
                | Dplan.Dit_bytes { off; len; slot } ->
                    if len < 0 then
                      failv path "byte run with negative length %d" len;
                    write path slot;
                    (off, len)
                | Dplan.Dit_const { off; atom; _ } ->
                    check_atom path atom;
                    (off, atom.Mplan.size)
              in
              if off < prev_end then
                failv path
                  "item at offset %d overlaps the previous item (ends at \
                   %d): offsets not monotone"
                  off prev_end;
              if off + extent > size then
                failv path "item [%d, %d) extends past the chunk size %d" off
                  (off + extent) size;
              off + extent)
            0 items
        in
        ()
    | Dplan.D_get_varhead { vh_worst; vh_slot; _ } ->
        if vh_worst < 1 || vh_worst > 9 then
          failv path "variable header worst-case %d out of range" vh_worst;
        write path vh_slot
    | Dplan.D_get_string { max_len; slot; _ } ->
        (match max_len with
        | Some m when m < 0 -> failv path "negative maximum length %d" m
        | _ -> ());
        write path slot
    | Dplan.D_const_str _ -> ()
    | Dplan.D_get_byteseq { count; slot; _ } ->
        check_dcount path count;
        write path slot
    | Dplan.D_get_atom_array { count; atom; slot; _ } ->
        check_dcount path count;
        check_atom path atom;
        (* the array op reads elements at a fixed stride of [size]
           bytes with at most one leading alignment; a size that is not
           a multiple of the alignment would need per-element
           re-alignment the op does not perform *)
        if atom.Mplan.align > 1 && atom.Mplan.size mod atom.Mplan.align <> 0
        then
          failv path
            "atom array stride %d is not a multiple of its alignment %d"
            atom.Mplan.size atom.Mplan.align;
        write path slot
    | Dplan.D_loop { count; ensure; elem_min; frame; slot } ->
        check_dcount path count;
        write path slot;
        check_min path ~what:"frame" elem_min (d_exact_advance frame.Dplan.f_ops);
        (match ensure with
        | None -> check_frame (path ^ ".loop") ~subs ~covered frame
        | Some u ->
            if u <= 0 then
              failv path "hoisted reservation of %d bytes is not positive" u;
            (match d_exact_advance frame.Dplan.f_ops with
            | Some v when v = u -> ()
            | Some v ->
                failv path
                  "hoisted reservation says %d bytes/iteration but the \
                   frame consumes exactly %d"
                  u v
            | None ->
                failv path
                  "hoisted reservation of %d bytes over a frame whose \
                   advance is data dependent"
                  u);
            check_frame (path ^ ".loop") ~subs ~covered:true frame)
    | Dplan.D_opt { frame; slot } ->
        write path slot;
        check_frame (path ^ ".opt") ~subs ~covered:false frame
    | Dplan.D_switch { arms; default; slot; _ } ->
        write path slot;
        List.iter
          (fun (a : Dplan.darm) ->
            if a.Dplan.d_case < 0 then
              failv path "arm with negative case index %d" a.Dplan.d_case;
            check_frame
              (Printf.sprintf "%s.arm(%d)" path a.Dplan.d_case)
              ~subs ~covered:false a.Dplan.d_frame)
          arms;
        Option.iter
          (check_frame (path ^ ".default") ~subs ~covered:false)
          default
    | Dplan.D_call { sub; slot } ->
        if not (List.mem sub subs) then
          failv path "call to undefined unmarshal subroutine %S" sub;
        write path slot
  in
  List.iteri check_op f.Dplan.f_ops;
  let rec check_shape path (sh : Dplan.shape) =
    match sh with
    | Dplan.Sh_void -> ()
    | Dplan.Sh_slot s ->
        if s < 0 || s >= f.Dplan.f_nslots then
          failv path "shape reads slot %d outside the frame's %d slots" s
            f.Dplan.f_nslots;
        if not (Hashtbl.mem written s) then
          failv path "shape reads slot %d that no op writes" s
    | Dplan.Sh_struct subs_sh -> List.iter (check_shape path) subs_sh
  in
  check_shape (path ^ ".shape") f.Dplan.f_shape

let check_dplan (plan : Dplan.plan) =
  let subs = List.map fst plan.Dplan.d_subs in
  try
    check_frame "ops" ~subs ~covered:false
      {
        Dplan.f_nslots = plan.Dplan.d_nslots;
        f_ops = plan.Dplan.d_ops;
        f_shape = Dplan.Sh_struct plan.Dplan.d_shapes;
      };
    List.iter
      (fun (name, frame) ->
        check_frame (Printf.sprintf "subs(%s)" name) ~subs ~covered:false
          frame)
      plan.Dplan.d_subs;
    Ok ()
  with Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Forward plans                                                        *)
(* ------------------------------------------------------------------ *)

(* Forward-plan obligations, re-derived independently of Fplan_compile:

   - inside a run, every source-touching move lies at monotone,
     non-overlapping offsets within [0, src_size), and likewise every
     destination-touching move within [0, dst_size) — so one [need] and
     one [ensure] really do cover every blit;
   - a run that skips a check on a side it touches is only legal under
     a loop reservation covering that side;
   - a loop's source reservation must equal the body's *exact* static
     source advance (decode checks raise — the encode analogy of an
     upper bound would reject well-formed messages), while the
     destination reservation only needs to bound the body's static
     advance from above ([ensure] merely reserves capacity). *)

let check_fcount path (c : Fplan.fcount) =
  match c with
  | Fplan.Fc_fixed n ->
      if n < 0 then failv path "fixed count %d is negative" n
  | Fplan.Fc_wire { min_len; max_len; _ } -> (
      if min_len < 0 then failv path "negative minimum length %d" min_len;
      match max_len with
      | Some m when m < min_len ->
          failv path "length bounds inverted: min %d > max %d" min_len m
      | _ -> ())

let check_fmoves path ~src_size ~dst_size moves =
  let _ =
    List.fold_left
      (fun (src_end, dst_end) (m : Fplan.fmove) ->
        let src_span, dst_span =
          match m with
          | Fplan.Fm_copy { src_off; dst_off; len } ->
              if len <= 0 then
                failv path "copy with non-positive length %d" len;
              (Some (src_off, len), Some (dst_off, len))
          | Fplan.Fm_convert { src_off; src_atom; dst_off; dst_atom } ->
              check_atom path src_atom;
              check_atom path dst_atom;
              if src_atom.Mplan.kind <> dst_atom.Mplan.kind then
                failv path "convert changes the atom kind";
              ( Some (src_off, src_atom.Mplan.size),
                Some (dst_off, dst_atom.Mplan.size) )
          | Fplan.Fm_check { src_off; atom; _ } ->
              check_atom path atom;
              (Some (src_off, atom.Mplan.size), None)
          | Fplan.Fm_const { dst_off; atom; _ } ->
              check_atom path atom;
              (None, Some (dst_off, atom.Mplan.size))
          | Fplan.Fm_zero { dst_off; len } ->
              if len <= 0 then
                failv path "zero fill with non-positive length %d" len;
              (None, Some (dst_off, len))
        in
        let advance side side_end size = function
          | None -> side_end
          | Some (off, len) ->
              if off < side_end then
                failv path
                  "%s move at offset %d overlaps the previous move (ends at \
                   %d): offsets not monotone"
                  side off side_end;
              if off + len > size then
                failv path "%s move [%d, %d) extends past the run size %d"
                  side off (off + len) size;
              off + len
        in
        ( advance "source" src_end src_size src_span,
          advance "destination" dst_end dst_size dst_span ))
      (0, 0) moves
  in
  ()

(* Exact static source consumption of a forward op sequence — the
   forward twin of [d_exact_advance], admitting only the op kinds a
   reservation-carrying loop body can contain.  [var]: the source is a
   self-describing encoding, whose scalars are value-dependent. *)
let rec f_src_exact_op ~var (op : Fplan.fop) : int option =
  match op with
  | Fplan.F_src_align a -> if a <= 1 then Some 0 else None
  | Fplan.F_dst_align _ -> Some 0 (* destination-only: no source bytes *)
  | Fplan.F_run { src_size; _ } -> Some src_size
  | Fplan.F_loop { count = Fplan.Fc_fixed n; body; _ } ->
      Option.map (fun u -> n * u) (f_src_exact ~var body)
  | Fplan.F_atom_array { count = Fplan.Fc_fixed n; src_atom; _ }
    when (not var) && src_atom.Mplan.align <= 1 ->
      Some (n * src_atom.Mplan.size)
  | _ -> None

and f_src_exact ~var ops =
  List.fold_left
    (fun acc op ->
      match (acc, f_src_exact_op ~var op) with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) ops

(* Static upper bound on destination bytes one run of the body emits. *)
let rec f_dst_bound_op (op : Fplan.fop) : int option =
  match op with
  | Fplan.F_dst_align a -> if is_pow2 a then Some (a - 1) else None
  | Fplan.F_src_align _ -> Some 0
  | Fplan.F_run { dst_size; _ } -> Some dst_size
  | Fplan.F_loop { count = Fplan.Fc_fixed n; body; _ } ->
      Option.map (fun u -> n * u) (f_dst_bound body)
  | _ -> None

and f_dst_bound ops =
  List.fold_left
    (fun acc op ->
      match (acc, f_dst_bound_op op) with
      | Some a, Some b -> Some (a + b)
      | _, _ -> None)
    (Some 0) ops

let rec check_fops path ~var ~covered_src ~covered_dst ops =
  List.iteri
    (fun i (op : Fplan.fop) ->
      let path = Printf.sprintf "%s[%d]" path i in
      match op with
      | Fplan.F_src_align a | Fplan.F_dst_align a ->
          if a >= 2 && not (is_pow2 a) then
            failv path "alignment %d is not a power of two" a
      | Fplan.F_run { src_size; dst_size; src_check; dst_check; moves } ->
          if src_size < 0 then
            failv path "run with negative source size %d" src_size;
          if dst_size < 0 then
            failv path "run with negative destination size %d" dst_size;
          if (not src_check) && (not covered_src) && src_size > 0 then
            failv path
              "run skips its source bounds check outside any loop \
               reservation (dropped need)";
          if (not dst_check) && (not covered_dst) && dst_size > 0 then
            failv path
              "run skips its destination capacity check outside any loop \
               reservation (dropped ensure)";
          check_fmoves path ~src_size ~dst_size moves
      | Fplan.F_blit { len; src_pad; dst_tail; _ } ->
          if len < 0 then failv path "blit with negative length %d" len;
          if src_pad < 1 then
            failv path "blit source pad unit %d < 1" src_pad;
          if dst_tail < 0 then
            failv path "blit with negative destination tail %d" dst_tail
      | Fplan.F_string { max_len; src_pad; dst_pad; _ } ->
          (match max_len with
          | Some m when m < 0 -> failv path "negative maximum length %d" m
          | _ -> ());
          if src_pad < 1 then failv path "source pad unit %d < 1" src_pad;
          if dst_pad < 1 then failv path "destination pad unit %d < 1" dst_pad
      | Fplan.F_const_str { s; src_pad; image; _ } ->
          if src_pad < 1 then failv path "source pad unit %d < 1" src_pad;
          if String.length image < 4 + String.length s then
            failv path
              "constant image of %d bytes cannot hold the length word plus \
               %d payload bytes"
              (String.length image) (String.length s)
      | Fplan.F_byteseq { count; src_pad; dst_pad; _ } ->
          check_fcount path count;
          if src_pad < 1 then failv path "source pad unit %d < 1" src_pad;
          if dst_pad < 1 then failv path "destination pad unit %d < 1" dst_pad
      | Fplan.F_atom_array
          { count; src_atom; dst_atom; dst_packed; emit_len; blit; _ } ->
          check_fcount path count;
          check_atom path src_atom;
          check_atom path dst_atom;
          if src_atom.Mplan.kind <> dst_atom.Mplan.kind then
            failv path "scalar array changes the atom kind";
          if blit && src_atom.Mplan.size <> dst_atom.Mplan.size then
            failv path "blitted scalar array with differing atom sizes %d/%d"
              src_atom.Mplan.size dst_atom.Mplan.size;
          if dst_packed && emit_len then
            failv path
              "packed destination run cannot also emit a length word";
          if
            src_atom.Mplan.align > 1
            && src_atom.Mplan.size mod src_atom.Mplan.align <> 0
          then
            failv path
              "atom array stride %d is not a multiple of its alignment %d"
              src_atom.Mplan.size src_atom.Mplan.align
      | Fplan.F_loop { count; src_min; src_ensure; dst_ensure; body; _ } ->
          check_fcount path count;
          check_min path ~what:"body" src_min (f_src_exact ~var body);
          (match src_ensure with
          | None -> ()
          | Some u -> (
              if u <= 0 then
                failv path "source reservation of %d bytes is not positive" u;
              match f_src_exact ~var body with
              | Some v when v = u -> ()
              | Some v ->
                  failv path
                    "source reservation says %d bytes/iteration but the body \
                     consumes exactly %d"
                    u v
              | None ->
                  failv path
                    "source reservation of %d bytes over a body whose \
                     advance is data dependent"
                    u));
          (match dst_ensure with
          | None -> ()
          | Some u -> (
              if u <= 0 then
                failv path
                  "destination reservation of %d bytes is not positive" u;
              match f_dst_bound body with
              | Some v when v > u ->
                  failv path
                    "destination reservation of %d bytes/element \
                     under-covers a worst-case per-element advance of %d"
                    u v
              | _ -> ()));
          check_fops (path ^ ".loop") ~var
            ~covered_src:(covered_src || src_ensure <> None)
            ~covered_dst:(covered_dst || dst_ensure <> None)
            body
      | Fplan.F_opt { body } ->
          check_fops (path ^ ".opt") ~var ~covered_src:false
            ~covered_dst:false body
      | Fplan.F_materialize { dplan; mplan; _ } -> (
          (match check_dplan dplan with
          | Ok () -> ()
          | Error e ->
              failv path "embedded decode plan: %s" (error_to_string e));
          match check_plan mplan with
          | Ok () -> ()
          | Error e ->
              failv path "embedded encode plan: %s" (error_to_string e)))
    ops

let check_fplan (plan : Fplan.plan) =
  try
    check_fops "fwd"
      ~var:(plan.Fplan.f_src.Encoding.var <> None)
      ~covered_src:false ~covered_dst:false plan.Fplan.f_ops;
    Ok ()
  with Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* The verification setting                                             *)
(* ------------------------------------------------------------------ *)

exception Rejected of { side : string; error : error }

let () =
  Printexc.register_printer (function
    | Rejected { side; error } ->
        Some (Printf.sprintf "Plan_verify.Rejected(%s plan: %s)" side (error_to_string error))
    | _ -> None)

(* Read at each call: tests toggle the variable. *)
let enabled () =
  match Sys.getenv_opt "FLICK_VERIFY_PLANS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

let checked ~side check plan =
  (if enabled () then
     match check plan with
     | Ok () -> ()
     | Error error -> raise (Rejected { side; error }));
  plan
