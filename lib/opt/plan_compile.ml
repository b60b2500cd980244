type root =
  | Rconst_int of int64 * Encoding.atom_kind
  | Rconst_str of string
  | Rvalue of Mplan.rv * Mint.idx * Pres.t

type plan = {
  p_ops : Mplan.op list;
  p_subs : (string * Mplan.op list) list;
}

let atom_of (enc : Encoding.t) kind : Mplan.atom =
  let { Encoding.size; align } = enc.Encoding.atom kind in
  { Mplan.kind; size; align }

let len_atom (enc : Encoding.t) : Mplan.atom =
  {
    Mplan.kind = Encoding.Kint { bits = 32; signed = false };
    size = enc.Encoding.len_prefix.Encoding.size;
    align = enc.Encoding.len_prefix.Encoding.align;
  }

let round_up n unit = (n + unit - 1) / unit * unit

let vh_worst_of kind =
  match Encoding.var_size kind with
  | Encoding.Fixed n -> n
  | Encoding.Var { worst } -> worst

let is_byte_elem mint elem =
  match Mint.get mint elem with
  | Mint.Char8 | Mint.Int { bits = 8; _ } -> true
  | Mint.Void | Mint.Bool | Mint.Int _ | Mint.Float _ | Mint.Array _
  | Mint.Struct _ | Mint.Union _ ->
      false

(* What the compilers know statically of a position: it is ≡ [aoff]
   modulo [abase], a power of two. *)
type pos = { abase : int; aoff : int }

let advance p n = { p with aoff = (p.aoff + n) mod p.abase }
let lose p u = { abase = max 1 (min p.abase u); aoff = 0 }
let aligned a = { abase = a; aoff = 0 }

let static_pad p a =
  if a <= 1 then Some 0 else if a <= p.abase then Some ((a - (p.aoff mod a)) mod a) else None

(* ------------------------------------------------------------------ *)
(* Storage analysis (section 3.1): the one static size model.           *)
(* ------------------------------------------------------------------ *)

type size = { min : int; max : int option }

(* One walk gives both ends.  [max] moves the congruence as the
   compiler below does (an alignment it cannot decide reserves [a - 1]):
   it must cover every byte of a body that [compile_loop] compiles
   unchecked, and it equals the peephole's static bound where that
   exists.  [min] counts no padding and no element of a counted run (a
   decoder accepts a count of 0), and a name met inside a named body as
   0. *)
let size ~enc ~mint ~named ?(start = (8, 0)) idx pres =
  let p = ref { abase = fst start; aoff = snd start } in
  let la = len_atom enc and selfdesc = enc.Encoding.var <> None in
  let word = if selfdesc then 1 else la.Mplan.size in
  let hmin = if enc.Encoding.typed_headers then la.Mplan.size else 0 in
  (* the bytes that padding to [a] and then [n] bytes add *)
  let place a n =
    if n = 0 then 0
    else
      match static_pad !p a with
      | Some pad ->
          p := advance !p (pad + n);
          pad + n
      | None ->
          (* a dynamic alignment: up to [a - 1] bytes *)
          p := advance (aligned a) n;
          a - 1 + n
  in
  let lose u = p := lose !p u in
  let header () = if hmin > 0 then place la.Mplan.align hmin else 0 in
  let ( +? ) a b = Option.bind a (fun a -> Option.map (( + ) a) b) in
  (* a bare scalar: its fewest and most bytes, and its alignment *)
  let scalar kind =
    if selfdesc then
      let least = match Encoding.var_size kind with Encoding.Fixed n -> n | Encoding.Var _ -> 1 in
      (least, vh_worst_of kind, 1)
    else
      let a = atom_of enc kind in
      (a.Mplan.size, a.Mplan.size, a.Mplan.align)
  in
  (* a scalar value: its header, then the scalar *)
  let value kind =
    let least, worst, align = scalar kind in
    let h = header () in
    { min = hmin + least; max = Some (h + place align worst) }
  in
  let rec go named idx (pres : Pres.t) =
    match (Mint.get mint idx, pres) with
    | _, Pres.Ref name ->
        let min =
          match List.assoc_opt name named with
          | Some (sidx, spres) -> (go [] sidx spres).min
          | None -> 0
        in
        { min; max = None }
    | Mint.Void, _ -> { min = 0; max = Some 0 }
    | Mint.Array { elem; min_len; max_len }, _ ->
        let h = header () in
        let s = array named elem min_len max_len pres in
        { min = hmin + s.min; max = Option.map (( + ) h) s.max }
    | Mint.Struct fields, Pres.Struct arms ->
        List.fold_left2
          (fun acc (_, f) (_, sub) ->
            let s = go named f sub in
            { min = acc.min + s.min; max = acc.max +? s.max })
          { min = 0; max = Some 0 } fields arms
    | Mint.Union { discrim; cases; default }, Pres.Union { arms; default_arm; _ } ->
        let entry = !p in
        (* every arm writes the discriminator, then its body, from the
           union's entry position *)
        let arm (body, sub) =
          p := entry;
          let k =
            match Encoding.atom_of_mint (Mint.get mint discrim) with
            | Some kind -> value kind
            | None -> { min = hmin + word; max = None }
          in
          let b = go named body sub in
          { min = k.min + b.min; max = k.max +? b.max }
        in
        let sizes =
          List.map arm
            (List.map2 (fun (c : Mint.case) (_, sub) -> (c.Mint.c_body, sub)) cases arms
            @ match (default, default_arm) with Some d, Some (_, sub) -> [ (d, sub) ] | _ -> [])
        in
        lose enc.Encoding.granularity;
        List.fold_left
          (fun a s -> { min = min a.min s.min; max = Option.bind a.max (fun m -> Option.map (max m) s.max) })
          (match sizes with [] -> { min = 0; max = Some 0 } | s :: _ -> s)
          sizes
    | def, _ -> (
        match Encoding.atom_of_mint def with
        | Some kind -> value kind
        | None -> invalid_arg "Plan_compile.size: PRES does not match MINT")
  and array named elem min_len max_len (pres : Pres.t) =
    let nul = if enc.Encoding.string_nul then 1 else 0 and pad = enc.Encoding.pad_unit in
    match pres with
    | Pres.Terminated_string | Pres.Terminated_string_len _ ->
        let l = place la.Mplan.align la.Mplan.size in
        lose pad;
        { min = word; max = Option.map (fun n -> l + round_up (n + nul) pad) max_len }
    | Pres.Fixed_array _ when Some min_len = max_len && is_byte_elem mint elem ->
        { min = min_len; max = Some (place 1 (round_up min_len pad)) }
    | Pres.Fixed_array sub -> (
        match Encoding.atom_of_mint (Mint.get mint elem) with
        | Some kind ->
            let least, worst, align = scalar kind in
            { min = min_len * least; max = Some (place align (min_len * worst)) }
        | None ->
            let e = loop named elem sub in
            { min = min_len * e.min; max = Option.map (( * ) min_len) e.max })
    | Pres.Counted_seq { elem = sub; _ } ->
        let l = place la.Mplan.align la.Mplan.size in
        let run =
          if is_byte_elem mint elem then (
            lose pad;
            Option.map (fun n -> round_up n pad) max_len)
          else
            match Encoding.atom_of_mint (Mint.get mint elem) with
            | Some kind ->
                let _, worst, align = scalar kind in
                let run = Option.map (fun n -> place align (n * worst)) max_len in
                lose (min (atom_of enc kind).Mplan.size 4);
                run
            | None ->
                lose la.Mplan.size;
                Option.bind max_len (fun n -> Option.map (( * ) n) (loop named elem sub).max)
        in
        { min = word; max = Option.map (( + ) l) run }
    | Pres.Opt_ptr sub ->
        let l = place la.Mplan.align la.Mplan.size in
        lose la.Mplan.size;
        { min = word; max = Option.map (( + ) l) (loop named elem sub).max }
    | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _ | Pres.Void
    | Pres.Ref _ ->
        invalid_arg "Plan_compile.size: array PRES mismatch"
  (* one element of a loop: element positions are data dependent, so
     only the encoding's granularity survives into and out of the body *)
  and loop named elem sub =
    lose enc.Encoding.granularity;
    let entry = !p in
    let e = go named elem sub in
    p := entry;
    e
  in
  go named idx pres

(* ------------------------------------------------------------------ *)
(* The plan compiler state                                              *)
(* ------------------------------------------------------------------ *)

type chunk_state = { mutable c_size : int; mutable c_items : Mplan.item list }

type st = {
  enc : Encoding.t;
  mint : Mint.t;
  named : (string * (Mint.idx * Pres.t)) list;
  unroll_limit : int;
  chunked : bool;  (* false: flush after every atom (ablation A1/A4) *)
  sg : bool;  (* mark blit-shaped ops as borrowable (scatter-gather) *)
  sg_thresh : int;  (* split It_bytes >= this out of chunks as Put_blit *)
  mutable ops_rev : Mplan.op list;
  mutable chunk : chunk_state option;
  mutable pos : pos;
  mutable covered : bool;  (* capacity pre-ensured: chunks skip their check *)
  mutable next_var : int;
  subs : (string, Mplan.op list option) Hashtbl.t;
      (* None while a subroutine is being compiled (recursion) *)
}

let flush st =
  match st.chunk with
  | None -> ()
  | Some c ->
      st.chunk <- None;
      if c.c_size > 0 then
        st.ops_rev <-
          Mplan.Chunk
            {
              size = c.c_size;
              align = 1;
              items = List.rev c.c_items;
              check = not st.covered;
            }
          :: st.ops_rev

let emit st op =
  flush st;
  st.ops_rev <- op :: st.ops_rev

let advance_static st n = st.pos <- advance st.pos n
let lose_alignment st u = st.pos <- lose st.pos u

(* Establish alignment [a].  Returns the number of statically known pad
   bytes to insert (when the congruence suffices), or emits a dynamic
   Align op. *)
let align_for st a =
  match static_pad st.pos a with
  | Some pad -> pad
  | None ->
      emit st (Mplan.Align a);
      st.pos <- aligned a;
      0

let chunk st =
  match st.chunk with
  | Some c -> c
  | None ->
      let c = { c_size = 0; c_items = [] } in
      st.chunk <- Some c;
      c

(* append one atom into the current chunk (starting one if needed) *)
let put_atom st (atom : Mplan.atom) (make : int -> Mplan.item) =
  let pad = align_for st atom.Mplan.align in
  let c = chunk st in
  let off = c.c_size + pad in
  c.c_items <- make off :: c.c_items;
  c.c_size <- off + atom.Mplan.size;
  advance_static st (pad + atom.Mplan.size);
  if not st.chunked then flush st

let put_header st =
  if st.enc.Encoding.typed_headers then begin
    let a = len_atom st.enc in
    (* a Mach-style type descriptor: constant word *)
    put_atom st a (fun off -> Mplan.It_const { off; atom = a; value = 0x4D544450L })
  end

let put_fixed_bytes st src len =
  let padded = round_up len st.enc.Encoding.pad_unit in
  if st.sg && len >= st.sg_thresh then begin
    (* large packed run: split out of the chunk so the engine can borrow
       the payload by reference instead of copying it *)
    emit st (Mplan.Put_blit { src; len; pad = padded - len });
    advance_static st padded
  end
  else begin
    let c = chunk st in
    let off = c.c_size in
    c.c_items <-
      Mplan.It_bytes { off; len; pad = padded - len; src } :: c.c_items;
    c.c_size <- off + padded;
    advance_static st padded
  end

(* state bookkeeping for the self-contained variable ops *)
let after_variable st =
  flush st;
  lose_alignment st st.enc.Encoding.pad_unit

let emit_const_str st s =
  (* the advance is statically known: align(4) + len + data + padding *)
  let pad_pre = align_for st st.enc.Encoding.len_prefix.Encoding.align in
  flush st;
  (* the pre-padding could not stay in a chunk: re-emit as Align when
     non-zero.  Static pads before self-contained ops are folded into the
     op by the engine's align; emitting Align is always correct. *)
  if pad_pre > 0 then st.ops_rev <- Mplan.Align st.enc.Encoding.len_prefix.Encoding.align :: st.ops_rev;
  let nul = st.enc.Encoding.string_nul in
  let data = String.length s + if nul then 1 else 0 in
  let padded = round_up data st.enc.Encoding.pad_unit in
  st.ops_rev <-
    Mplan.Put_const_str { s; nul; pad = padded - data } :: st.ops_rev;
  advance_static st (pad_pre + st.enc.Encoding.len_prefix.Encoding.size + padded)

(* Value-dependent scalars (msgpack, CBOR).  Floats keep a static wire
   image — a one-byte tag then a big-endian IEEE payload — so they stay
   chunkable; everything else becomes a [Put_varhead] that reserves its
   worst case and advances by the actual minimal width. *)

let u8_atom : Mplan.atom =
  { Mplan.kind = Encoding.Kint { bits = 8; signed = false }; size = 1; align = 1 }

let put_var_scalar st (vcc : Encoding.varcodec) kind src =
  match kind with
  | Encoding.Kfloat { bits } ->
      put_atom st u8_atom (fun off ->
          Mplan.It_const
            {
              off;
              atom = u8_atom;
              value = Int64.of_int (Encoding.var_float_tag vcc ~bits);
            });
      let payload = { Mplan.kind; size = bits / 8; align = 1 } in
      put_atom st payload (fun off ->
          Mplan.It_atom { off; atom = payload; src })
  | Encoding.Kbool | Encoding.Kchar | Encoding.Kint _ ->
      emit st
        (Mplan.Put_varhead
           {
             vh_kind = kind;
             vh_worst = vh_worst_of kind;
             vh_check = not st.covered;
             vh_src = Mplan.Vh_value src;
             vh_image = None;
           });
      lose_alignment st 1

let put_var_const st (vcc : Encoding.varcodec) kind value =
  emit st
    (Mplan.Put_varhead
       {
         vh_kind = kind;
         vh_worst = vh_worst_of kind;
         vh_check = not st.covered;
         vh_src = Mplan.Vh_const value;
         vh_image = Some (Encoding.var_const_image vcc kind value);
       });
  lose_alignment st 1

(* ------------------------------------------------------------------ *)
(* Main recursion                                                       *)
(* ------------------------------------------------------------------ *)

let fresh_var st =
  let v = st.next_var in
  st.next_var <- v + 1;
  v

let scalar_atom mint enc elem =
  match Encoding.atom_of_mint (Mint.get mint elem) with
  | Some kind -> Some (atom_of enc kind)
  | None -> None

let rec compile_value st (rv : Mplan.rv) idx (pres : Pres.t) =
  let def = Mint.get st.mint idx in
  match (def, pres) with
  | _, Pres.Ref name ->
      compile_sub st name;
      emit st (Mplan.Call (name, rv))
  | Mint.Void, _ -> ()
  | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
      match Encoding.atom_of_mint def with
      | Some kind -> (
          match st.enc.Encoding.var with
          | Some vcc -> put_var_scalar st vcc kind rv
          | None ->
              put_header st;
              let atom = atom_of st.enc kind in
              put_atom st atom (fun off -> Mplan.It_atom { off; atom; src = rv }))
      | None -> assert false)
  | Mint.Array { elem; min_len; max_len }, _ ->
      compile_array st rv ~elem ~min_len ~max_len pres
  | Mint.Struct fields, Pres.Struct arms ->
      List.iter2
        (fun (i, (_, fidx)) (member, sub) ->
          compile_value st
            (Mplan.Rfield { base = rv; index = i; member })
            fidx sub)
        (List.mapi (fun i f -> (i, f)) fields)
        arms
  | ( Mint.Union { discrim; cases; default },
      Pres.Union { discrim_field; union_field; arms; default_arm } ) ->
      compile_union st rv ~discrim ~cases ~default ~discrim_field ~union_field
        ~arms ~default_arm
  | (Mint.Struct _ | Mint.Union _), _ ->
      invalid_arg "Plan_compile: PRES does not match MINT"

and compile_array st rv ~elem ~min_len ~max_len (pres : Pres.t) =
  let enc = st.enc in
  let fixed = Some min_len = max_len in
  match pres with
  | Pres.Terminated_string | Pres.Terminated_string_len _ ->
      put_header st;
      let len_src =
        match pres with
        | Pres.Terminated_string_len { len_param } ->
            (* the explicit length parameter of the optimized
               presentation: generated C never calls strlen *)
            Some (Mplan.Rparam { index = 0; name = len_param; deref = false })
        | _ -> None
      in
      let pad_pre = align_for st enc.Encoding.len_prefix.Encoding.align in
      flush st;
      if pad_pre > 0 then
        st.ops_rev <- Mplan.Align enc.Encoding.len_prefix.Encoding.align :: st.ops_rev;
      st.ops_rev <-
        Mplan.Put_string
          { src = rv; nul = enc.Encoding.string_nul; pad = enc.Encoding.pad_unit;
            len_src; borrow = st.sg; max_len }
        :: st.ops_rev;
      after_variable st
  | Pres.Fixed_array sub when fixed && is_byte_elem st.mint elem ->
      put_header st;
      ignore sub;
      put_fixed_bytes st rv min_len
  | Pres.Fixed_array sub -> (
      put_header st;
      match scalar_atom st.mint enc elem with
      | Some atom
        when enc.Encoding.var = None && min_len <= st.unroll_limit ->
          (* unroll small scalar arrays into the surrounding chunk *)
          let rec unroll i =
            if i < min_len then begin
              put_atom st atom (fun off ->
                  Mplan.It_atom
                    {
                      off;
                      atom;
                      src = Mplan.Rfield { base = rv; index = i; member = Printf.sprintf "[%d]" i };
                    });
              unroll (i + 1)
            end
          in
          unroll 0
      | Some atom ->
          emit st
            (Mplan.Put_atom_array
               { arr = rv; via = Mplan.Via_fixed min_len; atom; with_len = false; max_len = None });
          lose_alignment st (min atom.Mplan.size 4)
      | None -> compile_loop st rv (Mplan.Via_fixed min_len) elem sub)
  | Pres.Counted_seq { len_field; buf_field; elem = sub } -> (
      put_header st;
      let via = Mplan.Via_seq { len_field; buf_field } in
      if is_byte_elem st.mint elem then begin
        let pad_pre = align_for st enc.Encoding.len_prefix.Encoding.align in
        flush st;
        if pad_pre > 0 then
          st.ops_rev <- Mplan.Align enc.Encoding.len_prefix.Encoding.align :: st.ops_rev;
        st.ops_rev <-
          Mplan.Put_byteseq
            { arr = rv; via; pad = enc.Encoding.pad_unit; borrow = st.sg; max_len }
          :: st.ops_rev;
        after_variable st
      end
      else
        match scalar_atom st.mint enc elem with
        | Some atom ->
            emit st (Mplan.Put_atom_array { arr = rv; via; atom; with_len = true; max_len });
            (* the run may be empty, leaving the position just after the
               4-byte count *)
            lose_alignment st (min atom.Mplan.size 4)
        | None ->
            emit st (Mplan.Put_len { arr = rv; via; max_len });
            lose_alignment st enc.Encoding.len_prefix.Encoding.size;
            compile_loop st rv via elem sub)
  | Pres.Opt_ptr sub ->
      put_header st;
      let via = Mplan.Via_opt in
      emit st (Mplan.Put_len { arr = rv; via; max_len = None });
      lose_alignment st st.enc.Encoding.len_prefix.Encoding.size;
      compile_loop st rv via elem sub
  | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _ | Pres.Void
  | Pres.Ref _ ->
      invalid_arg "Plan_compile: array PRES mismatch"

and compile_loop st arr via elem sub =
  (* element positions are data dependent: only the encoding's layout
     granularity survives into and out of the body *)
  lose_alignment st st.enc.Encoding.granularity;
  let entry = st.pos in
  (* Arrays of statically bounded elements get one capacity reservation
     for the whole run; their per-element chunks skip the check. *)
  let bounded =
    (size ~enc:st.enc ~mint:st.mint ~named:st.named ~start:(entry.abase, entry.aoff) elem sub)
      .max
  in
  (match bounded with
  | Some unit_size when unit_size > 0 ->
      emit st (Mplan.Ensure_count { arr; via; unit_size })
  | Some _ | None -> ());
  let var = fresh_var st in
  let saved_covered = st.covered in
  flush st;
  let saved_ops = st.ops_rev in
  st.ops_rev <- [];
  st.covered <- (match bounded with Some _ -> true | None -> saved_covered);
  compile_value st (Mplan.Rvar var) elem sub;
  flush st;
  let body = List.rev st.ops_rev in
  st.ops_rev <- saved_ops;
  st.covered <- saved_covered;
  st.pos <- entry;
  emit st (Mplan.Loop { arr; via; var; body })

and compile_union st rv ~discrim ~cases ~default ~discrim_field ~union_field
    ~arms ~default_arm =
  let enc = st.enc in
  let discrim_atom =
    match Encoding.atom_of_mint (Mint.get st.mint discrim) with
    | Some kind -> Some (atom_of enc kind)
    | None -> None (* string-keyed: operation unions *)
  in
  flush st;
  let entry = st.pos in
  let compile_arm ~discrim_write body_f =
    let saved_ops = st.ops_rev in
    st.ops_rev <- [];
    st.chunk <- None;
    st.pos <- entry;
    discrim_write ();
    body_f ();
    flush st;
    let ops = List.rev st.ops_rev in
    st.ops_rev <- saved_ops;
    st.chunk <- None;
    ops
  in
  let const_value (c : Mint.const) =
    match c with
    | Mint.Cint n -> n
    | Mint.Cbool b -> if b then 1L else 0L
    | Mint.Cchar ch -> Int64.of_int (Char.code ch)
    | Mint.Cstring _ -> invalid_arg "Plan_compile: string label with atom discriminator"
  in
  let plan_arms =
    List.map2
      (fun (i, (case : Mint.case)) (member, sub) ->
        let payload_rv =
          Mplan.Rarm { base = rv; case = i; member; union_field }
        in
        let body =
          compile_arm
            ~discrim_write:(fun () ->
              match discrim_atom with
              | Some atom -> (
                  let value = const_value case.Mint.c_const in
                  match enc.Encoding.var with
                  | Some vcc -> put_var_const st vcc atom.Mplan.kind value
                  | None ->
                      put_header st;
                      put_atom st atom (fun off ->
                          Mplan.It_const { off; atom; value }))
              | None -> (
                  match case.Mint.c_const with
                  | Mint.Cstring key ->
                      put_header st;
                      emit_const_str st key
                  | Mint.Cint _ | Mint.Cbool _ | Mint.Cchar _ ->
                      invalid_arg
                        "Plan_compile: integer label with string discriminator"))
            (fun () -> compile_value st payload_rv case.Mint.c_body sub)
        in
        { Mplan.a_const = case.Mint.c_const; a_case = i; a_member = member;
          a_body = body })
      (List.mapi (fun i c -> (i, c)) cases)
      arms
  in
  let plan_default =
    match (default, default_arm) with
    | Some didx, Some (member, sub) ->
        let payload_rv =
          Mplan.Rarm { base = rv; case = -1; member; union_field }
        in
        let body =
          compile_arm
            ~discrim_write:(fun () ->
              match discrim_atom with
              | Some atom -> (
                  let src =
                    Mplan.Rdiscrim { base = rv; member = discrim_field }
                  in
                  match enc.Encoding.var with
                  | Some vcc -> put_var_scalar st vcc atom.Mplan.kind src
                  | None ->
                      put_header st;
                      put_atom st atom (fun off ->
                          Mplan.It_atom { off; atom; src }))
              | None ->
                  invalid_arg
                    "Plan_compile: default arm with string discriminator")
            (fun () -> compile_value st payload_rv didx sub)
        in
        Some (member, body)
    | None, None -> None
    | _, _ -> invalid_arg "Plan_compile: PRES/MINT default mismatch"
  in
  st.ops_rev <-
    Mplan.Switch
      {
        u = rv;
        discrim_atom;
        arms = plan_arms;
        default = plan_default;
        union_field;
        discrim_field;
      }
    :: st.ops_rev;
  (* arms end at data-dependent positions *)
  lose_alignment st enc.Encoding.granularity

and compile_sub st name =
  match Hashtbl.find_opt st.subs name with
  | Some _ -> ()
  | None -> (
      match List.assoc_opt name st.named with
      | None -> invalid_arg ("Plan_compile: unknown named presentation " ^ name)
      | Some (idx, pres) ->
          Hashtbl.add st.subs name None;
          (* compile the subroutine body with a fresh state sharing the
             subs table; called at arbitrary positions *)
          let sub_st =
            {
              st with
              ops_rev = [];
              chunk = None;
              pos = aligned (max 1 st.enc.Encoding.granularity);
              covered = false;
              next_var = 0;
            }
          in
          compile_value sub_st
            (Mplan.Rparam { index = 0; name = "_v"; deref = true })
            idx pres;
          flush sub_st;
          Hashtbl.replace st.subs name (Some (List.rev sub_st.ops_rev)))

let compile ~enc ~mint ~named ?(start = (8, 0)) ?(unroll_limit = 64)
    ?(chunked = true) ?sg ?sg_threshold roots =
  let st =
    {
      enc;
      mint;
      named;
      unroll_limit;
      chunked;
      sg = (match sg with Some b -> b | None -> Mbuf.sg_enabled ());
      sg_thresh =
        (match sg_threshold with
        | Some n -> n
        | None -> Mbuf.borrow_threshold ());
      ops_rev = [];
      chunk = None;
      pos = { abase = fst start; aoff = snd start };
      covered = false;
      next_var = 0;
      subs = Hashtbl.create 4;
    }
  in
  List.iter
    (fun root ->
      match root with
      | Rconst_int (value, kind) -> (
          match enc.Encoding.var with
          | Some vcc -> put_var_const st vcc kind value
          | None ->
              put_header st;
              let atom = atom_of enc kind in
              put_atom st atom (fun o -> Mplan.It_const { off = o; atom; value }))
      | Rconst_str s ->
          put_header st;
          emit_const_str st s
      | Rvalue (rv, idx, pres) -> compile_value st rv idx pres)
    roots;
  flush st;
  let subs =
    Hashtbl.fold
      (fun name body acc ->
        match body with Some b -> (name, b) :: acc | None -> acc)
      st.subs []
  in
  { p_ops = List.rev st.ops_rev; p_subs = subs }
