type via =
  | Via_seq of { len_field : string; buf_field : string }
  | Via_string
  | Via_fixed of int
  | Via_opt

type atom = { kind : Encoding.atom_kind; size : int; align : int }

type rv =
  | Rparam of { index : int; name : string; deref : bool }
  | Rfield of { base : rv; index : int; member : string }
  | Rvar of int
  | Rarm of { base : rv; case : int; member : string; union_field : string }
  | Ropt of rv
  | Rdiscrim of { base : rv; member : string }

type item =
  | It_atom of { off : int; atom : atom; src : rv }
  | It_bytes of { off : int; len : int; pad : int; src : rv }
  | It_const of { off : int; atom : atom; value : int64 }

type vh_src = Vh_value of rv | Vh_const of int64

type op =
  | Align of int
  | Chunk of { size : int; align : int; items : item list; check : bool }
  | Put_varhead of {
      vh_kind : Encoding.atom_kind;
      vh_worst : int;
      vh_check : bool;
      vh_src : vh_src;
      vh_image : string option;
    }
  | Ensure_count of { arr : rv; via : via; unit_size : int }
  | Put_const_str of { s : string; nul : bool; pad : int }
  | Put_string of {
      src : rv;
      nul : bool;
      pad : int;
      len_src : rv option;
      borrow : bool;
      max_len : int option;
    }
  | Put_byteseq of { arr : rv; via : via; pad : int; borrow : bool; max_len : int option }
  | Put_atom_array of { arr : rv; via : via; atom : atom; with_len : bool; max_len : int option }
  | Put_blit of { src : rv; len : int; pad : int }
  | Put_len of { arr : rv; via : via; max_len : int option }
  | Loop of { arr : rv; via : via; var : int; body : op list }
  | Switch of {
      u : rv;
      discrim_atom : atom option;
      arms : arm list;
      default : (string * op list) option;
      union_field : string;
      discrim_field : string;
    }
  | Call of string * rv

and arm = {
  a_const : Mint.const;
  a_case : int;
  a_member : string;
  a_body : op list;
}

let rec pp_rv ppf = function
  | Rparam { name; deref; _ } ->
      Format.fprintf ppf "%s%s" (if deref then "*" else "") name
  | Rfield { base; member; _ } -> Format.fprintf ppf "%a.%s" pp_rv base member
  | Rvar i -> Format.fprintf ppf "_e%d" i
  | Rarm { base; member; union_field; _ } ->
      Format.fprintf ppf "%a.%s.%s" pp_rv base union_field member
  | Ropt base -> Format.fprintf ppf "*%a" pp_rv base
  | Rdiscrim { base; member } -> Format.fprintf ppf "%a.%s" pp_rv base member

let pp_atom ppf (a : atom) =
  let kind =
    match a.kind with
    | Encoding.Kbool -> "bool"
    | Encoding.Kchar -> "char"
    | Encoding.Kint { bits; signed } ->
        Printf.sprintf "%sint%d" (if signed then "" else "u") bits
    | Encoding.Kfloat { bits } -> Printf.sprintf "float%d" bits
  in
  Format.fprintf ppf "%s/%d" kind a.size

let pp_item ppf = function
  | It_atom { off; atom; src } ->
      Format.fprintf ppf "@[%d: %a <- %a@]" off pp_atom atom pp_rv src
  | It_bytes { off; len; pad; src } ->
      Format.fprintf ppf "@[%d: bytes[%d+%d] <- %a@]" off len pad pp_rv src
  | It_const { off; atom; value } ->
      Format.fprintf ppf "@[%d: %a <- const %Ld@]" off pp_atom atom value

let pp_kind ppf (k : Encoding.atom_kind) =
  let s =
    match k with
    | Encoding.Kbool -> "bool"
    | Encoding.Kchar -> "char"
    | Encoding.Kint { bits; signed } ->
        Printf.sprintf "%sint%d" (if signed then "" else "u") bits
    | Encoding.Kfloat { bits } -> Printf.sprintf "float%d" bits
  in
  Format.pp_print_string ppf s

let pp_max = function None -> "" | Some m -> Printf.sprintf " max=%d" m

let rec pp_op ppf = function
  | Align n -> Format.fprintf ppf "align %d" n
  | Put_varhead { vh_kind; vh_worst; vh_check; vh_src; vh_image } ->
      Format.fprintf ppf "put_varhead %a worst=%d%s <- %s%s" pp_kind vh_kind
        vh_worst
        (if vh_check then "" else " nocheck")
        (match vh_src with
        | Vh_const v -> Printf.sprintf "const %Ld" v
        | Vh_value rv -> Format.asprintf "%a" pp_rv rv)
        (match vh_image with
        | None -> ""
        | Some s -> Printf.sprintf " image=%d bytes" (String.length s))
  | Chunk { size; align; items; check } ->
      Format.fprintf ppf "@[<v 2>chunk size=%d align=%d%s {" size align
        (if check then "" else " nocheck");
      List.iter (fun it -> Format.fprintf ppf "@,%a" pp_item it) items;
      Format.fprintf ppf "@]@,}"
  | Ensure_count { arr; unit_size; via = _ } ->
      Format.fprintf ppf "ensure len(%a) * %d" pp_rv arr unit_size
  | Put_const_str { s; nul; pad } ->
      Format.fprintf ppf "put_const_str %S nul=%B pad=%d" s nul pad
  | Put_string { src; nul; pad; len_src; borrow = _; max_len } ->
      Format.fprintf ppf "put_string %a nul=%B pad=%d%s%s" pp_rv src nul pad
        (match len_src with None -> "" | Some _ -> " (explicit length)")
        (pp_max max_len)
  | Put_byteseq { arr; pad; via = _; borrow = _; max_len } ->
      Format.fprintf ppf "put_byteseq %a pad=%d%s" pp_rv arr pad (pp_max max_len)
  | Put_atom_array { arr; atom; with_len; via = _; max_len } ->
      Format.fprintf ppf "put_atom_array %a %a%s%s" pp_rv arr pp_atom atom
        (if with_len then "" else " (no len)") (pp_max max_len)
  | Put_blit { src; len; pad } ->
      Format.fprintf ppf "put_blit %a len=%d pad=%d" pp_rv src len pad
  | Put_len { arr; via = _; max_len } -> Format.fprintf ppf "put_len %a%s" pp_rv arr (pp_max max_len)
  | Loop { arr; var; body; via = _ } ->
      Format.fprintf ppf "@[<v 2>for _e%d in %a {" var pp_rv arr;
      List.iter (fun o -> Format.fprintf ppf "@,%a" pp_op o) body;
      Format.fprintf ppf "@]@,}"
  | Switch { u; arms; default; _ } ->
      Format.fprintf ppf "@[<v 2>switch %a {" pp_rv u;
      List.iter
        (fun arm ->
          Format.fprintf ppf "@,@[<v 2>case %a (%s):" Mint.pp_const arm.a_const
            arm.a_member;
          List.iter (fun o -> Format.fprintf ppf "@,%a" pp_op o) arm.a_body;
          Format.fprintf ppf "@]")
        arms;
      (match default with
      | None -> ()
      | Some (member, body) ->
          Format.fprintf ppf "@,@[<v 2>default (%s):" member;
          List.iter (fun o -> Format.fprintf ppf "@,%a" pp_op o) body;
          Format.fprintf ppf "@]");
      Format.fprintf ppf "@]@,}"
  | Call (name, rv) -> Format.fprintf ppf "call %s(%a)" name pp_rv rv

let pp ppf ops =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i op ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_op ppf op)
    ops;
  Format.fprintf ppf "@]"

let rec count_ops ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Align _ | Ensure_count _ | Put_const_str _ | Put_string _
      | Put_byteseq _ | Put_atom_array _ | Put_blit _ | Put_len _ | Call _
      | Put_varhead _ ->
          1
      | Chunk { items; _ } -> 1 + List.length items
      | Loop { body; _ } -> 1 + count_ops body
      | Switch { arms; default; _ } ->
          1
          + List.fold_left (fun a arm -> a + count_ops arm.a_body) 0 arms
          + (match default with None -> 0 | Some (_, b) -> count_ops b))
    0 ops

(* Static count of capacity-check sites, the encode analog of
   Dplan.count_checks: explicit reservations plus the self-ensuring
   variable-length ops.  A static proxy for comparing plan shapes —
   loop bodies count once, whatever the runtime trip count. *)
let rec count_checks ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Align _ | Call _ -> 0
      | Chunk { check; _ } -> if check then 1 else 0
      | Put_varhead { vh_check; _ } -> if vh_check then 1 else 0
      | Ensure_count _ -> 1
      (* each of these reserves for itself before writing *)
      | Put_const_str _ | Put_string _ | Put_byteseq _ | Put_atom_array _
      | Put_blit _ | Put_len _ ->
          1
      | Loop { body; _ } -> count_checks body
      | Switch { arms; default; _ } ->
          List.fold_left (fun a arm -> a + count_checks arm.a_body) 0 arms
          + (match default with None -> 0 | Some (_, b) -> count_checks b))
    0 ops
