(* The unmarshal plan: the decode-side mirror of Mplan.  Where an
   encode plan reads runtime values through Mplan.rv paths and writes
   wire bytes, a decode plan reads wire bytes and names the numbered
   *slot* of the enclosing frame each decoded value fills; a [shape]
   tree says how the frame's slots assemble into one structured value.
   The slot/frame split is what lets chunking work on the decode side:
   loads belonging to different struct fields can share one chunk (one
   bounds check, constant offsets) because each load says where its
   result goes, independent of any construction order.  [frame_build]
   below tells the executor when it can skip the slots and build the
   value as it reads. *)

type shape =
  | Sh_void
  | Sh_slot of int
  | Sh_struct of shape list

type ditem =
  | Dit_atom of { off : int; atom : Mplan.atom; slot : int }
  | Dit_bytes of { off : int; len : int; slot : int }
      (* small fixed byte run, copied out of the chunk *)
  | Dit_const of { off : int; atom : Mplan.atom; value : int64 }
      (* verify a constant word (message-format discriminators) *)

(* How a variable-length op learns its element count. *)
type dcount =
  | Dc_fixed of int  (* statically known; nothing on the wire *)
  | Dc_len of { min_len : int; max_len : int option; what : string }
      (* 32-bit count on the wire, checked against the type's bounds *)

type dop =
  | D_align of int
  | D_chunk of { size : int; items : ditem list; check : bool }
      (* one [need] ([check] false under a hoisted reservation), loads
         at constant offsets, one cursor advance; spans no item covers
         are skipped bytes (headers, padding) *)
  | D_get_varhead of {
      vh_kind : Encoding.atom_kind;
      vh_worst : int;
      vh_slot : int;
    }
      (* parse a value-dependent scalar header (self-describing
         encodings); always self-checking — the advance is data
         dependent, so it never rides a hoisted reservation *)
  | D_get_string of { max_len : int option; slot : int; view : bool }
  | D_const_str of string  (* verify a constant counted string *)
  | D_get_byteseq of { count : dcount; slot : int; view : bool }
  | D_get_atom_array of {
      count : dcount;
      atom : Mplan.atom;
      var : bool;  (* value-dependent elements: no static advance *)
      slot : int;
    }
  | D_loop of { count : dcount; ensure : int option; elem_min : int; frame : frame; slot : int }
      (* [ensure]: every iteration advances exactly that many bytes, so
         one [need count * ensure] covers the whole run; [elem_min]: the
         fewest bytes an element takes *)
  | D_opt of { frame : frame; slot : int }
  | D_switch of {
      discrim_atom : Mplan.atom option;  (* None: string-keyed *)
      arms : darm list;
      default : frame option;
      slot : int;
    }
  | D_call of { sub : string; slot : int }

and darm = { d_const : Mint.const; d_case : int; d_frame : frame }
and frame = { f_nslots : int; f_ops : dop list; f_shape : shape }

type plan = {
  d_nslots : int;
  d_ops : dop list;
  d_shapes : shape list;  (* one per decoded output value, in order *)
  d_subs : (string * frame) list;
}

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec pp_shape ppf = function
  | Sh_void -> Format.pp_print_string ppf "()"
  | Sh_slot i -> Format.fprintf ppf "s%d" i
  | Sh_struct shapes ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
           pp_shape)
        shapes

let pp_atom = Mplan.pp_atom

let pp_item ppf = function
  | Dit_atom { off; atom; slot } ->
      Format.fprintf ppf "@[%d: s%d <- %a@]" off slot pp_atom atom
  | Dit_bytes { off; len; slot } ->
      Format.fprintf ppf "@[%d: s%d <- bytes[%d]@]" off slot len
  | Dit_const { off; atom; value } ->
      Format.fprintf ppf "@[%d: expect %a = %Ld@]" off pp_atom atom value

let pp_count ppf = function
  | Dc_fixed n -> Format.fprintf ppf "%d" n
  | Dc_len { min_len; max_len; what } ->
      Format.fprintf ppf "len(%s)[%d..%s]" what min_len
        (match max_len with None -> "" | Some m -> string_of_int m)

let rec pp_op ppf = function
  | D_align n -> Format.fprintf ppf "align %d" n
  | D_get_varhead { vh_kind; vh_worst; vh_slot } ->
      Format.fprintf ppf "s%d <- get_varhead %a worst=%d (scalar)" vh_slot
        Mplan.pp_kind vh_kind vh_worst
  | D_chunk { size; items; check } ->
      Format.fprintf ppf "@[<v 2>chunk size=%d%s {" size
        (if check then "" else " nocheck");
      List.iter (fun it -> Format.fprintf ppf "@,%a" pp_item it) items;
      Format.fprintf ppf "@]@,}"
  | D_get_string { max_len; slot; view } ->
      Format.fprintf ppf "s%d <- get_string%s%s" slot
        (match max_len with
        | None -> ""
        | Some m -> Printf.sprintf " max=%d" m)
        (if view then " view" else "")
  | D_const_str s -> Format.fprintf ppf "expect_str %S" s
  | D_get_byteseq { count; slot; view } ->
      Format.fprintf ppf "s%d <- get_byteseq %a%s" slot pp_count count
        (if view then " view" else "")
  | D_get_atom_array { count; atom; var; slot } ->
      Format.fprintf ppf "s%d <- get_atom_array %a %a%s" slot pp_count count
        pp_atom atom
        (if var then " var" else "")
  | D_loop { count; ensure; elem_min; frame; slot } ->
      Format.fprintf ppf "@[<v 2>s%d <- for %a%s min*%d {" slot pp_count count
        (match ensure with
        | None -> ""
        | Some u -> Printf.sprintf " ensure*%d" u)
        elem_min;
      pp_frame_body ppf frame;
      Format.fprintf ppf "@]@,}"
  | D_opt { frame; slot } ->
      Format.fprintf ppf "@[<v 2>s%d <- opt {" slot;
      pp_frame_body ppf frame;
      Format.fprintf ppf "@]@,}"
  | D_switch { discrim_atom; arms; default; slot } ->
      Format.fprintf ppf "@[<v 2>s%d <- switch%s {" slot
        (match discrim_atom with
        | Some a -> Format.asprintf " %a" pp_atom a
        | None -> " key");
      List.iter
        (fun arm ->
          Format.fprintf ppf "@,@[<v 2>case %a:" Mint.pp_const arm.d_const;
          pp_frame_body ppf arm.d_frame;
          Format.fprintf ppf "@]")
        arms;
      (match default with
      | None -> ()
      | Some frame ->
          Format.fprintf ppf "@,@[<v 2>default:";
          pp_frame_body ppf frame;
          Format.fprintf ppf "@]");
      Format.fprintf ppf "@]@,}"
  | D_call { sub; slot } -> Format.fprintf ppf "s%d <- call %s" slot sub

and pp_frame_body ppf frame =
  List.iter (fun op -> Format.fprintf ppf "@,%a" pp_op op) frame.f_ops;
  Format.fprintf ppf "@,=> %a" pp_shape frame.f_shape

let pp ppf ops =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i op ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_op ppf op)
    ops;
  Format.fprintf ppf "@]"

let pp_plan ppf plan =
  Format.fprintf ppf "@[<v>%a@,=> [%a]@]" pp plan.d_ops
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_shape)
    plan.d_shapes;
  List.iter
    (fun (name, frame) ->
      Format.fprintf ppf "@.@[<v 2>sub %s:" name;
      pp_frame_body ppf frame;
      Format.fprintf ppf "@]")
    plan.d_subs

(* ------------------------------------------------------------------ *)
(* Static size metrics (benchmark reporting)                           *)
(* ------------------------------------------------------------------ *)

let rec count_ops ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | D_align _ | D_get_string _ | D_const_str _ | D_get_byteseq _
      | D_get_atom_array _ | D_call _ | D_get_varhead _ ->
          1
      | D_chunk { items; _ } -> 1 + List.length items
      | D_loop { frame; _ } | D_opt { frame; _ } -> 1 + count_ops frame.f_ops
      | D_switch { arms; default; _ } ->
          1
          + List.fold_left (fun a arm -> a + count_ops arm.d_frame.f_ops) 0 arms
          + (match default with None -> 0 | Some f -> count_ops f.f_ops))
    0 ops

(* Static count of bounds-check sites: checked chunks plus the
   self-checking reads of the variable-length ops (a count read and a
   payload read each perform one).  Loop and switch bodies count once —
   a static proxy, like {!count_ops}, for comparing plan shapes. *)
let rec count_checks ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | D_align _ | D_call _ -> 0
      | D_chunk { check; _ } -> if check then 1 else 0
      | D_get_varhead _ -> 1
      | D_get_string _ | D_const_str _ -> 2
      | D_get_byteseq { count; _ } | D_get_atom_array { count; _ } -> (
          match count with Dc_fixed _ -> 1 | Dc_len _ -> 2)
      | D_loop { count; ensure; frame; _ } ->
          (match count with Dc_fixed _ -> 0 | Dc_len _ -> 1)
          + (match ensure with Some _ -> 1 | None -> 0)
          + count_checks frame.f_ops
      | D_opt { frame; _ } -> 1 + count_checks frame.f_ops
      | D_switch { arms; default; _ } ->
          1
          + List.fold_left
              (fun a arm -> a + count_checks arm.d_frame.f_ops)
              0 arms
          + (match default with None -> 0 | Some f -> count_checks f.f_ops))
    0 ops

(* ------------------------------------------------------------------ *)
(* How the executor builds each frame's value                          *)
(* ------------------------------------------------------------------ *)

type rows_layout =
  | Rows_words of { align : int; size : int; offs : int list }
  | Rows_heads

type rows = { r_kind : Encoding.atom_kind; r_width : int; r_layout : rows_layout }
type build = Direct_chunk | In_order | Slot_frame of string | Int_rows of rows

let op_fills = function
  | D_chunk { items; _ } ->
      List.filter_map
        (function
          | Dit_atom { slot; _ } | Dit_bytes { slot; _ } -> Some slot
          | Dit_const _ -> None)
        items
  | D_get_varhead { vh_slot; _ } -> [ vh_slot ]
  | D_align _ | D_const_str _ -> []
  | D_get_string { slot; _ }
  | D_get_byteseq { slot; _ }
  | D_get_atom_array { slot; _ }
  | D_loop { slot; _ }
  | D_opt { slot; _ }
  | D_switch { slot; _ }
  | D_call { slot; _ } ->
      [ slot ]

let rec shape_reads acc = function
  | Sh_void -> acc
  | Sh_slot i -> i :: acc
  | Sh_struct shapes -> List.fold_left shape_reads acc shapes

(* Wire order is fill order: a frame whose shape reads its slots in
   that order is built as it is read; one lone chunk may be read in any
   order, since every load sits at a constant offset under one check. *)
let build_of ops shapes =
  let fills = List.concat_map op_fills ops in
  let reads = List.rev (List.fold_left shape_reads [] shapes) in
  let direct =
    match ops with [ D_chunk _ ] | [ D_align _; D_chunk _ ] -> true | _ -> false
  in
  let sorted = List.sort compare fills in
  if direct && sorted = List.sort compare reads
     && List.length (List.sort_uniq compare fills) = List.length fills
  then Direct_chunk
  else if fills = reads then In_order
  else if sorted <> List.sort compare reads then
    Slot_frame "slots filled and read differ"
  else Slot_frame "shape reads slots out of wire order"

let frame_build f = build_of f.f_ops [ f.f_shape ]
let plan_build p = build_of p.d_ops p.d_shapes

(* 4-byte words at offsets [offs], in order, inside [size] bytes *)
let rec apart size = function
  | a :: (b :: _ as rest) -> a + 4 <= b && apart size rest
  | [ a ] -> a + 4 <= size
  | [] -> true

(* Rows of (kind, offset) leaves of one int kind of at most 32 bits: 4-byte
   words of a chunk [(align, size)], [align] dividing [size], or heads. *)
let rows_of leaves chunk =
  let offs = List.map snd leaves in
  match (leaves, chunk) with
  | ((Encoding.Kint { bits; _ } as r_kind), _) :: _, _
    when bits <= 32 && List.for_all (fun (kind, _) -> kind = r_kind) leaves ->
      let rows r_layout = Some { r_kind; r_width = List.length leaves; r_layout } in
      (match chunk with
      | Some (align, size) when size mod align = 0 && apart size offs -> rows (Rows_words { align; size; offs })
      | Some _ -> None
      | None -> rows Rows_heads)
  | _ -> None

(* A loop whose elements are structs of integer leaves of at most 32
   bits, read in order, decodes into one flat int array: its ops fill
   the leaves in order with one kind, as the 4-byte words of one chunk
   at increasing offsets (after at most one alignment that divides the
   chunk's size), or as one value-dependent head each. *)
let loop_build f =
  let reads = List.rev (shape_reads [] f.f_shape) in
  let k = List.length reads in
  let rec ints = function
    | Sh_slot _ -> true
    | Sh_struct shapes -> List.for_all ints shapes
    | Sh_void -> false
  in
  (* each leaf's (slot, kind, offset); slot -1 for anything else *)
  let word = function
    | Dit_atom { off; atom = { Mplan.size = 4; kind; _ }; slot } -> (slot, kind, off)
    | Dit_atom _ | Dit_bytes _ | Dit_const _ -> (-1, Encoding.Kbool, 0)
  and head = function
    | D_get_varhead { vh_kind; vh_slot = s; _ } -> (s, vh_kind, 0)
    | _ -> (-1, Encoding.Kbool, 0)
  in
  let leaves, chunk =
    match f.f_ops with
    | [ D_chunk { size; items; _ } ] -> (List.map word items, Some (1, size))
    | [ D_align a; D_chunk { size; items; _ } ] -> (List.map word items, Some (a, size))
    | ops -> (List.map head ops, None)
  in
  match (f.f_shape, rows_of (List.map (fun (_, kind, off) -> (kind, off)) leaves) chunk) with
  | Sh_struct _, Some rows
    when ints f.f_shape && reads = List.init k Fun.id && List.map (fun (s, _, _) -> s) leaves = reads ->
      Int_rows rows
  | _ -> frame_build f

type row_store = { rs_rows : rows; rs_shape : shape; rs_fill : (int * int64) list }

(* The struct tree whose leaves in order, [Sh_slot 0 ..], are at the
   field-index [paths]: a guess by first index, made exact by a check. *)
let shape_of_paths paths =
  let next = ref (-1) in
  let rec guess = function
    | [] | [ [] ] ->
        incr next;
        Sh_slot !next
    | paths ->
        let n = List.fold_left (fun n p -> match p with i :: _ -> max n (i + 1) | [] -> n) 0 paths in
        Sh_struct
          (List.init n (fun i -> guess (List.filter_map (function j :: p when j = i -> Some p | _ -> None) paths)))
  and leaves = function
    | Sh_slot _ | Sh_void -> [ [] ]
    | Sh_struct shapes -> List.concat (List.mapi (fun i s -> List.map (List.cons i) (leaves s)) shapes)
  in
  match guess paths with Sh_struct _ as s when leaves s = paths -> Some s | _ -> None

(* The encode twin of [loop_build] (see the interface). *)
let store_rows ~var (body : Mplan.op list) =
  let rec path acc (rv : Mplan.rv) =
    match rv with
    | Mplan.Rvar v when v = var -> Some acc
    | Mplan.Rfield { base; index; _ } -> path (index :: acc) base
    | _ -> None
  in
  (* each leaf's (path, kind, offset), apart from a chunk's constant
     words *)
  let word (it : Mplan.item) =
    match it with
    | Mplan.It_atom { off; atom = { Mplan.size = 4; kind; _ }; src } -> Either.Right (path [] src, kind, off)
    | Mplan.It_const { off; atom = { Mplan.size = 4; _ }; value } when off mod 4 = 0 -> Either.Left (off, value)
    | _ -> Either.Right (None, Encoding.Kbool, 0)
  and head (op : Mplan.op) =
    match op with
    | Mplan.Put_varhead { vh_kind; vh_check = false; vh_src = src; _ } ->
        (path [] src, vh_kind, 0)
    | _ -> (None, Encoding.Kbool, 0)
  in
  let leaves, consts, chunk =
    match body with
    | [ Mplan.Chunk { size; items; check = false; _ } ] | [ Mplan.Align _; Mplan.Chunk { size; items; check = false; _ } ] ->
        let consts, leaves = List.partition_map word items in
        (leaves, consts, Some ((match body with [ Mplan.Align a; _ ] -> a | _ -> 1), size))
    | ops -> (List.map head ops, [], None)
  in
  let paths = List.filter_map (fun (p, _, _) -> p) leaves
  and offs = List.map (fun (_, _, off) -> off) leaves in
  (* every 4-byte word of a row that holds no leaf *)
  let fill size =
    List.filter_map
      (fun o -> if List.mem o offs then None else Some (o, Option.value (List.assoc_opt o consts) ~default:0L))
      (List.init (size / 4) (( * ) 4))
  in
  match (rows_of (List.map (fun (_, kind, off) -> (kind, off)) leaves) chunk, shape_of_paths paths) with
  | Some rs_rows, Some rs_shape
    when List.length paths = List.length leaves
         && Option.fold chunk ~none:true ~some:(fun (_, size) -> size mod 4 = 0 && List.for_all (fun o -> o mod 4 = 0) offs) ->
      Some { rs_rows; rs_shape; rs_fill = Option.fold chunk ~none:[] ~some:(fun (_, size) -> fill size) }
  | _ -> None

let build_name = function
  | Direct_chunk -> "direct chunk"
  | In_order -> "in order"
  | Slot_frame why -> "slot frame: " ^ why
  | Int_rows { r_kind; r_width; r_layout } ->
      Format.asprintf "int rows ×%d %a%s" r_width Mplan.pp_kind r_kind
        (match r_layout with
        | Rows_words { size; _ } when size > 4 * r_width -> Printf.sprintf ", stride %d" size
        | Rows_words _ | Rows_heads -> "")

let frame_builds p =
  let out = ref [ ("top", plan_build p) ] in
  let rec walk path ops =
    List.iter
      (function
        | D_loop { frame; slot; _ } ->
            sub ~build:(loop_build frame)
              (Printf.sprintf "%s/s%d loop" path slot)
              frame
        | D_opt { frame; slot } ->
            sub (Printf.sprintf "%s/s%d opt" path slot) frame
        | D_switch { arms; default; slot; _ } ->
            List.iter
              (fun arm ->
                sub
                  (Format.asprintf "%s/s%d case %a" path slot Mint.pp_const
                     arm.d_const)
                  arm.d_frame)
              arms;
            Option.iter
              (sub (Printf.sprintf "%s/s%d default" path slot))
              default
        | _ -> ())
      ops
  and sub ?build path f =
    out := (path, Option.value build ~default:(frame_build f)) :: !out;
    walk path f.f_ops
  in
  walk "top" p.d_ops;
  List.iter (fun (name, f) -> sub ("sub " ^ name) f) p.d_subs;
  List.rev !out
