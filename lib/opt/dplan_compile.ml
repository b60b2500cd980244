(* Decode-plan compiler: lowers (MINT, PRES, encoding) into Dplan, the
   unmarshal mirror of Plan_compile.  It reuses the same congruence-
   based position tracking (position ≡ aoff mod abase) so statically
   known alignment padding folds into chunk offsets and survives across
   variable-length data exactly as on the encode side; where the
   congruence is insufficient a dynamic D_align is emitted, which is
   always position-correct at runtime (conservative congruence loss is
   therefore safe — it costs chunking quality, never correctness).

   The emitted plan decodes byte-for-byte the positions the rpcgen-style
   decoder (Stub_naive) reads — the differential qcheck suite in
   test/test_decplan.ml pins plan = naive = interp on every
   encoding. *)

type droot =
  | Dconst_int of int64 * Encoding.atom_kind
  | Dconst_str of string
  | Dvalue of Mint.idx * Pres.t

type chunk_state = { mutable c_size : int; mutable c_items : Dplan.ditem list }

type st = {
  enc : Encoding.t;
  mint : Mint.t;
  named : (string * (Mint.idx * Pres.t)) list;
  chunked : bool;  (* false: flush after every load (ablation) *)
  views : bool;  (* mark string/byteseq loads as view-eligible *)
  view_thresh : int;  (* split fixed byte runs >= this out of chunks *)
  mutable ops_rev : Dplan.dop list;
  mutable chunk : chunk_state option;
  mutable pos : Plan_compile.pos;
  mutable next_slot : int;
  subs : (string, Dplan.frame option) Hashtbl.t;
      (* None while a subroutine is being compiled (recursion) *)
}

let round_up = Plan_compile.round_up
let atom_of st kind = Plan_compile.atom_of st.enc kind
let var_atoms st = st.enc.Encoding.var <> None
let len_atom st = Plan_compile.len_atom st.enc

let flush st =
  match st.chunk with
  | None -> ()
  | Some c ->
      st.chunk <- None;
      if c.c_size > 0 then
        st.ops_rev <-
          Dplan.D_chunk
            { size = c.c_size; items = List.rev c.c_items; check = true }
          :: st.ops_rev

let emit st op =
  flush st;
  st.ops_rev <- op :: st.ops_rev

let advance_static st n = st.pos <- Plan_compile.advance st.pos n
let lose_alignment st u = st.pos <- Plan_compile.lose st.pos u

let align_for st a =
  match Plan_compile.static_pad st.pos a with
  | Some pad -> pad
  | None ->
      emit st (Dplan.D_align a);
      st.pos <- Plan_compile.aligned a;
      0

(* Simulate an alignment that the executor performs dynamically inside
   an op (e.g. before a switch discriminator): advance the congruence
   without emitting anything. *)
let sim_align st a =
  st.pos <-
    (match Plan_compile.static_pad st.pos a with
    | Some pad -> Plan_compile.advance st.pos pad
    | None -> Plan_compile.aligned a)

(* a loop body, optional or subroutine: only the encoding's layout
   granularity is known where it starts *)
let granular st = Plan_compile.aligned (max 1 st.enc.Encoding.granularity)

let chunk st =
  match st.chunk with
  | Some c -> c
  | None ->
      let c = { c_size = 0; c_items = [] } in
      st.chunk <- Some c;
      c

(* Append one atom-sized load (or gap, when [make] yields no item) into
   the current chunk, starting one if needed. *)
let take_atom st (atom : Mplan.atom) (make : int -> Dplan.ditem option) =
  let pad = align_for st atom.Mplan.align in
  let c = chunk st in
  let off = c.c_size + pad in
  (match make off with Some it -> c.c_items <- it :: c.c_items | None -> ());
  c.c_size <- off + atom.Mplan.size;
  advance_static st (pad + atom.Mplan.size);
  if not st.chunked then flush st

(* Typed headers are skipped on decode (the encode side writes a
   constant descriptor word): a pure gap in the chunk. *)
let take_header st =
  if st.enc.Encoding.typed_headers then
    take_atom st (len_atom st) (fun _ -> None)

let take_fixed_bytes st slot len =
  let padded = round_up len st.enc.Encoding.pad_unit in
  if st.views && len >= st.view_thresh then begin
    (* large packed run: split out of the chunk so the engine can hand
       out a zero-copy view instead of copying the payload *)
    emit st
      (Dplan.D_get_byteseq { count = Dplan.Dc_fixed len; slot; view = true });
    advance_static st padded
  end
  else begin
    let c = chunk st in
    let off = c.c_size in
    c.c_items <- Dplan.Dit_bytes { off; len; slot } :: c.c_items;
    c.c_size <- off + padded;
    advance_static st padded;
    if not st.chunked then flush st
  end

let after_variable st =
  flush st;
  lose_alignment st st.enc.Encoding.pad_unit

(* The 4-byte count of a variable-length run: align + read, performed
   dynamically by the executor; the alignment is also folded into the
   congruence here, and when the congruence suffices the pre-padding is
   re-emitted as a (statically no-op at most [align-1] bytes) D_align,
   mirroring Plan_compile's handling of length prefixes. *)
let take_len_prefix st =
  let a = st.enc.Encoding.len_prefix.Encoding.align in
  let pad_pre = align_for st a in
  flush st;
  if pad_pre > 0 then st.ops_rev <- Dplan.D_align a :: st.ops_rev;
  advance_static st st.enc.Encoding.len_prefix.Encoding.size

let take_const_str st s =
  let pad_pre = align_for st st.enc.Encoding.len_prefix.Encoding.align in
  flush st;
  if pad_pre > 0 then
    st.ops_rev <-
      Dplan.D_align st.enc.Encoding.len_prefix.Encoding.align :: st.ops_rev;
  let nul = st.enc.Encoding.string_nul in
  let data = String.length s + if nul then 1 else 0 in
  let padded = round_up data st.enc.Encoding.pad_unit in
  st.ops_rev <- Dplan.D_const_str s :: st.ops_rev;
  advance_static st
    (pad_pre + st.enc.Encoding.len_prefix.Encoding.size + padded)

let fresh_slot st =
  let s = st.next_slot in
  st.next_slot <- s + 1;
  s

(* Compile [build] into its own frame: fresh slot namespace and op
   stream, entry congruence [pos].  The caller must have flushed its
   chunk. *)
let compile_frame st ~pos build =
  let saved_ops = st.ops_rev
  and saved_chunk = st.chunk
  and saved_pos = st.pos
  and saved_slot = st.next_slot in
  st.ops_rev <- [];
  st.chunk <- None;
  st.pos <- pos;
  st.next_slot <- 0;
  let shape = build () in
  flush st;
  let frame =
    { Dplan.f_nslots = st.next_slot; f_ops = List.rev st.ops_rev; f_shape = shape }
  in
  st.ops_rev <- saved_ops;
  st.chunk <- saved_chunk;
  st.pos <- saved_pos;
  st.next_slot <- saved_slot;
  frame

(* Value-dependent scalars (msgpack, CBOR) — the decode mirror of
   Plan_compile.put_var_scalar/put_var_const.  Floats keep a static
   wire image (tag byte + big-endian IEEE payload) and stay chunkable;
   everything else parses through a self-checking [D_get_varhead]. *)

let take_var_scalar st (vcc : Encoding.varcodec) kind =
  match kind with
  | Encoding.Kfloat { bits } ->
      let slot = fresh_slot st in
      take_atom st Plan_compile.u8_atom (fun off ->
          Some
            (Dplan.Dit_const
               {
                 off;
                 atom = Plan_compile.u8_atom;
                 value = Int64.of_int (Encoding.var_float_tag vcc ~bits);
               }));
      let payload = { Mplan.kind; size = bits / 8; align = 1 } in
      take_atom st payload (fun off ->
          Some (Dplan.Dit_atom { off; atom = payload; slot }));
      slot
  | Encoding.Kbool | Encoding.Kchar | Encoding.Kint _ ->
      let slot = fresh_slot st in
      emit st
        (Dplan.D_get_varhead
           {
             vh_kind = kind;
             vh_worst = Plan_compile.vh_worst_of kind;
             vh_slot = Some slot;
             vh_expect = None;
             vh_image = None;
             vh_what = "scalar";
           });
      lose_alignment st 1;
      slot

let take_var_const st (vcc : Encoding.varcodec) kind value ~what =
  emit st
    (Dplan.D_get_varhead
       {
         vh_kind = kind;
         vh_worst = Plan_compile.vh_worst_of kind;
         vh_slot = None;
         vh_expect = Some value;
         vh_image = Some (Encoding.var_const_image vcc kind value);
         vh_what = what;
       });
  lose_alignment st 1

let is_byte_elem mint elem =
  match Mint.get mint elem with
  | Mint.Char8 | Mint.Int { bits = 8; _ } -> true
  | Mint.Void | Mint.Bool | Mint.Int _ | Mint.Float _ | Mint.Array _
  | Mint.Struct _ | Mint.Union _ ->
      false

(* ------------------------------------------------------------------ *)
(* Main recursion                                                      *)
(* ------------------------------------------------------------------ *)

let rec compile_value st idx (pres : Pres.t) : Dplan.shape =
  let def = Mint.get st.mint idx in
  match (def, pres) with
  | _, Pres.Ref name ->
      compile_sub st name;
      let slot = fresh_slot st in
      emit st (Dplan.D_call { sub = name; slot });
      (* the subroutine body ends at a data-dependent position *)
      lose_alignment st st.enc.Encoding.granularity;
      Dplan.Sh_slot slot
  | Mint.Void, _ -> Dplan.Sh_void
  | (Mint.Bool | Mint.Char8 | Mint.Int _ | Mint.Float _), _ -> (
      match Encoding.atom_of_mint def with
      | Some kind -> (
          match st.enc.Encoding.var with
          | Some vcc -> Dplan.Sh_slot (take_var_scalar st vcc kind)
          | None ->
              take_header st;
              let atom = atom_of st kind in
              let slot = fresh_slot st in
              take_atom st atom (fun off ->
                  Some (Dplan.Dit_atom { off; atom; slot }));
              Dplan.Sh_slot slot)
      | None -> assert false)
  | Mint.Array { elem; min_len; max_len }, _ ->
      compile_array st ~elem ~min_len ~max_len pres
  | Mint.Struct fields, Pres.Struct arms ->
      Dplan.Sh_struct
        (List.map2
           (fun (_, fidx) (_, sub) -> compile_value st fidx sub)
           fields arms)
  | ( Mint.Union { discrim; cases; default },
      Pres.Union { arms; default_arm; _ } ) ->
      compile_union st ~discrim ~cases ~default ~arms ~default_arm
  | (Mint.Struct _ | Mint.Union _), _ ->
      invalid_arg "Dplan_compile: PRES does not match MINT"

and compile_array st ~elem ~min_len ~max_len (pres : Pres.t) =
  let enc = st.enc in
  match pres with
  | Pres.Terminated_string | Pres.Terminated_string_len _ ->
      take_header st;
      take_len_prefix st;
      let slot = fresh_slot st in
      st.ops_rev <-
        Dplan.D_get_string { max_len; slot; view = st.views } :: st.ops_rev;
      after_variable st;
      Dplan.Sh_slot slot
  | Pres.Fixed_array _ when is_byte_elem st.mint elem ->
      take_header st;
      let slot = fresh_slot st in
      take_fixed_bytes st slot min_len;
      Dplan.Sh_slot slot
  | Pres.Fixed_array sub -> (
      take_header st;
      match Encoding.atom_of_mint (Mint.get st.mint elem) with
      | Some kind ->
          let atom = atom_of st kind in
          let slot = fresh_slot st in
          emit st
            (Dplan.D_get_atom_array
               { count = Dplan.Dc_fixed min_len; atom; var = var_atoms st; slot });
          lose_alignment st (min atom.Mplan.size 4);
          Dplan.Sh_slot slot
      | None -> compile_loop st (Dplan.Dc_fixed min_len) elem sub)
  | Pres.Counted_seq { elem = sub; _ } -> (
      take_header st;
      if is_byte_elem st.mint elem then begin
        take_len_prefix st;
        let slot = fresh_slot st in
        st.ops_rev <-
          Dplan.D_get_byteseq
            {
              count = Dplan.Dc_len { min_len; max_len; what = "sequence" };
              slot;
              view = st.views;
            }
          :: st.ops_rev;
        after_variable st;
        Dplan.Sh_slot slot
      end
      else
        match Encoding.atom_of_mint (Mint.get st.mint elem) with
        | Some kind ->
            let atom = atom_of st kind in
            let slot = fresh_slot st in
            emit st
              (Dplan.D_get_atom_array
                 {
                   count = Dplan.Dc_len { min_len = 0; max_len; what = "array" };
                   atom;
                   var = var_atoms st;
                   slot;
                 });
            lose_alignment st (min atom.Mplan.size 4);
            Dplan.Sh_slot slot
        | None ->
            compile_loop st
              (Dplan.Dc_len { min_len; max_len; what = "sequence" })
              elem sub)
  | Pres.Opt_ptr sub ->
      take_header st;
      flush st;
      let frame =
        compile_frame st ~pos:(granular st) (fun () -> compile_value st elem sub)
      in
      let slot = fresh_slot st in
      emit st (Dplan.D_opt { frame; slot });
      lose_alignment st enc.Encoding.granularity;
      Dplan.Sh_slot slot
  | Pres.Direct | Pres.Enum_direct | Pres.Struct _ | Pres.Union _ | Pres.Void
  | Pres.Ref _ ->
      invalid_arg "Dplan_compile: array PRES mismatch"

and compile_loop st count elem sub =
  flush st;
  (* element positions are data dependent: only the encoding's layout
     granularity survives into and out of the body *)
  let frame =
    compile_frame st ~pos:(granular st) (fun () -> compile_value st elem sub)
  in
  let elem_min = (Plan_compile.size ~enc:st.enc ~mint:st.mint ~named:st.named elem sub).min in
  let slot = fresh_slot st in
  emit st (Dplan.D_loop { count; ensure = None; elem_min; frame; slot });
  lose_alignment st st.enc.Encoding.granularity;
  Dplan.Sh_slot slot

and compile_union st ~discrim ~cases ~default ~arms ~default_arm =
  let enc = st.enc in
  let discrim_atom =
    match Encoding.atom_of_mint (Mint.get st.mint discrim) with
    | Some kind -> Some (atom_of st kind)
    | None -> None (* string-keyed: operation unions *)
  in
  (* wire layout per arm is [header][discriminator][payload]; on decode
     the switch op reads the discriminator itself, so the arms start at
     the post-discriminator position *)
  take_header st;
  flush st;
  (match discrim_atom with
  | Some _ when enc.Encoding.var <> None ->
      (* value-dependent discriminator: data-dependent advance *)
      lose_alignment st 1
  | Some atom ->
      sim_align st atom.Mplan.align;
      advance_static st atom.Mplan.size
  | None ->
      (* counted string key: data-dependent advance *)
      lose_alignment st enc.Encoding.pad_unit);
  let entry = st.pos in
  let plan_arms =
    List.map2
      (fun (i, (case : Mint.case)) (_member, sub) ->
        let frame =
          compile_frame st ~pos:entry (fun () ->
              compile_value st case.Mint.c_body sub)
        in
        { Dplan.d_const = case.Mint.c_const; d_case = i; d_frame = frame })
      (List.mapi (fun i c -> (i, c)) cases)
      arms
  in
  let plan_default =
    match (default, default_arm) with
    | Some didx, Some (_member, sub) ->
        Some
          (compile_frame st ~pos:entry (fun () ->
               compile_value st didx sub))
    | None, None -> None
    | _, _ -> invalid_arg "Dplan_compile: PRES/MINT default mismatch"
  in
  let slot = fresh_slot st in
  st.ops_rev <-
    Dplan.D_switch { discrim_atom; arms = plan_arms; default = plan_default; slot }
    :: st.ops_rev;
  (* arms end at data-dependent positions *)
  lose_alignment st enc.Encoding.granularity;
  Dplan.Sh_slot slot

and compile_sub st name =
  match Hashtbl.find_opt st.subs name with
  | Some _ -> ()
  | None -> (
      match List.assoc_opt name st.named with
      | None ->
          invalid_arg ("Dplan_compile: unknown named presentation " ^ name)
      | Some (idx, pres) ->
          Hashtbl.add st.subs name None;
          (* subroutines are called at arbitrary positions *)
          let frame = compile_frame st ~pos:(granular st) (fun () -> compile_value st idx pres) in
          Hashtbl.replace st.subs name (Some frame))

let compile ~enc ~mint ~named ?(start = (8, 0)) ?(chunked = true)
    ?(views = false) ?view_threshold droots : Dplan.plan =
  let st =
    {
      enc;
      mint;
      named;
      chunked;
      views;
      view_thresh =
        (match view_threshold with
        | Some n -> n
        | None -> Mbuf.borrow_threshold ());
      ops_rev = [];
      chunk = None;
      pos = { Plan_compile.abase = fst start; aoff = snd start };
      next_slot = 0;
      subs = Hashtbl.create 4;
    }
  in
  let shapes_rev = ref [] in
  List.iter
    (fun droot ->
      match droot with
      | Dconst_int (value, kind) -> (
          match enc.Encoding.var with
          | Some vcc -> take_var_const st vcc kind value ~what:"constant"
          | None ->
              take_header st;
              let atom = atom_of st kind in
              take_atom st atom (fun off ->
                  Some (Dplan.Dit_const { off; atom; value })))
      | Dconst_str s ->
          take_header st;
          take_const_str st s
      | Dvalue (idx, pres) ->
          shapes_rev := compile_value st idx pres :: !shapes_rev)
    droots;
  flush st;
  let subs =
    Hashtbl.fold
      (fun name body acc ->
        match body with Some b -> (name, b) :: acc | None -> acc)
      st.subs []
  in
  {
    Dplan.d_nslots = st.next_slot;
    d_ops = List.rev st.ops_rev;
    d_shapes = List.rev !shapes_rev;
    d_subs = subs;
  }
