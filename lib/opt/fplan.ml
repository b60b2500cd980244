(* The forward plan: a fused decode+encode program for gateway
   relaying.  See fplan.mli. *)

type fcount =
  | Fc_fixed of int
  | Fc_wire of { min_len : int; max_len : int option; what : string }

type fmove =
  | Fm_copy of { src_off : int; dst_off : int; len : int }
  | Fm_convert of {
      src_off : int;
      src_atom : Mplan.atom;
      dst_off : int;
      dst_atom : Mplan.atom;
    }
  | Fm_check of { src_off : int; atom : Mplan.atom; value : int64 }
  | Fm_const of { dst_off : int; atom : Mplan.atom; value : int64 }
  | Fm_zero of { dst_off : int; len : int }

type fop =
  | F_src_align of int
  | F_dst_align of int
  | F_run of {
      src_size : int;
      dst_size : int;
      src_check : bool;
      dst_check : bool;
      moves : fmove list;
    }
  | F_blit of { len : int; src_pad : int; dst_tail : int; borrow : bool }
  | F_string of {
      max_len : int option;
      src_nul : bool;
      dst_nul : bool;
      src_pad : int;
      dst_pad : int;
      borrow : bool;
    }
  | F_const_str of { s : string; src_nul : bool; src_pad : int; image : string }
  | F_byteseq of {
      count : fcount;
      emit_len : bool;
      src_pad : int;
      dst_pad : int;
      borrow : bool;
    }
  | F_atom_array of {
      count : fcount;
      emit_len : bool;
      src_atom : Mplan.atom;
      dst_atom : Mplan.atom;
      dst_packed : bool;
      blit : bool;
      borrow : bool;
    }
  | F_counted_blit of {
      count : fcount;
      emit_len : bool;
      unit_size : int;
      borrow : bool;
    }
  | F_loop of {
      count : fcount;
      emit_len : bool;
      src_min : int;
      src_ensure : int option;
      dst_ensure : int option;
      body : fop list;
    }
  | F_opt of { body : fop list }
  | F_materialize of {
      index : int;
      dplan : Dplan.plan;
      mplan : Plan_compile.plan;
    }

type plan = {
  f_ops : fop list;
  f_src : Encoding.t;
  f_dst : Encoding.t;
}

(* -- provenance ------------------------------------------------------ *)

let provenance = function
  | F_src_align _ | F_dst_align _ -> "align"
  | F_run { moves; _ } ->
      let rec classify conv data = function
        | [] -> if conv then "convert" else if data then "blit" else "fixup"
        | Fm_convert _ :: rest -> classify true data rest
        | Fm_copy _ :: rest -> classify conv true rest
        | _ :: rest -> classify conv data rest
      in
      classify false false moves
  | F_blit { borrow; _ } -> if borrow then "borrow" else "blit"
  | F_string { borrow; _ } -> if borrow then "borrow" else "blit"
  | F_const_str _ -> "fixup"
  | F_byteseq { borrow; _ } -> if borrow then "borrow" else "blit"
  | F_atom_array { blit; borrow; _ } ->
      if not blit then "convert" else if borrow then "borrow" else "blit"
  | F_counted_blit { borrow; _ } -> if borrow then "borrow" else "blit"
  | F_loop _ -> "loop"
  | F_opt _ -> "opt"
  | F_materialize _ -> "fallback"

(* -- pretty printer -------------------------------------------------- *)

let pp_count ppf = function
  | Fc_fixed n -> Format.fprintf ppf "%d" n
  | Fc_wire { min_len; max_len; what } ->
      Format.fprintf ppf "wire(%s %d..%s)" what min_len
        (match max_len with Some m -> string_of_int m | None -> "inf")

let pp_move ppf = function
  | Fm_copy { src_off; dst_off; len } ->
      Format.fprintf ppf "@[copy src@@%d -> dst@@%d len=%d@]" src_off dst_off
        len
  | Fm_convert { src_off; src_atom; dst_off; dst_atom } ->
      Format.fprintf ppf "@[convert src@@%d %a -> dst@@%d %a@]" src_off
        Mplan.pp_atom src_atom dst_off Mplan.pp_atom dst_atom
  | Fm_check { src_off; atom; value } ->
      Format.fprintf ppf "@[check src@@%d %a = %Ld@]" src_off Mplan.pp_atom
        atom value
  | Fm_const { dst_off; atom; value } ->
      Format.fprintf ppf "@[const dst@@%d %a <- %Ld@]" dst_off Mplan.pp_atom
        atom value
  | Fm_zero { dst_off; len } ->
      Format.fprintf ppf "@[zero dst@@%d len=%d@]" dst_off len

let rec pp_op ppf op =
  let tag = provenance op in
  match op with
  | F_src_align n -> Format.fprintf ppf "src_align %d" n
  | F_dst_align n -> Format.fprintf ppf "dst_align %d" n
  | F_run { src_size; dst_size; src_check; dst_check; moves } ->
      Format.fprintf ppf "@[<v 2>run src=%d%s dst=%d%s {  # %s" src_size
        (if src_check then "" else " nocheck")
        dst_size
        (if dst_check then "" else " nocheck")
        tag;
      List.iter (fun m -> Format.fprintf ppf "@,%a" pp_move m) moves;
      Format.fprintf ppf "@]@,}"
  | F_blit { len; src_pad; dst_tail; borrow = _ } ->
      Format.fprintf ppf "blit len=%d src_pad=%d dst_tail=%d  # %s" len
        src_pad dst_tail tag
  | F_string { max_len; src_nul; dst_nul; src_pad; dst_pad; borrow = _ } ->
      Format.fprintf ppf
        "string max=%s nul=%B->%B pad=%d->%d  # %s"
        (match max_len with Some m -> string_of_int m | None -> "inf")
        src_nul dst_nul src_pad dst_pad tag
  | F_const_str { s; src_nul; src_pad; image } ->
      Format.fprintf ppf "const_str %S nul=%B pad=%d image=%dB  # %s" s
        src_nul src_pad (String.length image) tag
  | F_byteseq { count; emit_len; src_pad; dst_pad; borrow = _ } ->
      Format.fprintf ppf "byteseq count=%a%s pad=%d->%d  # %s" pp_count count
        (if emit_len then " emit_len" else "")
        src_pad dst_pad tag
  | F_atom_array
      { count; emit_len; src_atom; dst_atom; dst_packed; blit; borrow = _ } ->
      Format.fprintf ppf "atom_array count=%a%s%s %a -> %a %s  # %s" pp_count
        count
        (if emit_len then " emit_len" else "")
        (if dst_packed then " packed" else "")
        Mplan.pp_atom src_atom Mplan.pp_atom dst_atom
        (if blit then "(blit)" else "(convert)")
        tag
  | F_counted_blit { count; emit_len; unit_size; borrow = _ } ->
      Format.fprintf ppf "counted_blit count=%a%s unit=%d  # %s" pp_count
        count
        (if emit_len then " emit_len" else "")
        unit_size tag
  | F_loop { count; emit_len; src_min; src_ensure; dst_ensure; body } ->
      let pp_ens ppf = function
        | Some u -> Format.fprintf ppf "%d" u
        | None -> Format.fprintf ppf "-"
      in
      Format.fprintf ppf
        "@[<v 2>loop count=%a%s ensure=%a->%a min=%d {" pp_count count
        (if emit_len then " emit_len" else "")
        pp_ens src_ensure pp_ens dst_ensure src_min;
      List.iter (fun o -> Format.fprintf ppf "@,%a" pp_op o) body;
      Format.fprintf ppf "@]@,}"
  | F_opt { body } ->
      Format.fprintf ppf "@[<v 2>opt {";
      List.iter (fun o -> Format.fprintf ppf "@,%a" pp_op o) body;
      Format.fprintf ppf "@]@,}"
  | F_materialize { index; dplan; mplan } ->
      Format.fprintf ppf
        "materialize root#%d (decode %d ops, re-encode %d ops)  # %s" index
        (Dplan.count_ops dplan.Dplan.d_ops)
        (Mplan.count_ops mplan.Plan_compile.p_ops)
        tag

let pp ppf ops =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i op ->
      if i > 0 then Format.fprintf ppf "@,";
      pp_op ppf op)
    ops;
  Format.fprintf ppf "@]"

let pp_plan ppf p =
  Format.fprintf ppf "@[<v>forward %s -> %s@,%a@]" p.f_src.Encoding.name
    p.f_dst.Encoding.name pp p.f_ops

(* -- sizes ----------------------------------------------------------- *)

let rec op_nodes = function
  | F_loop { body; _ } | F_opt { body } ->
      1 + List.fold_left (fun a o -> a + op_nodes o) 0 body
  | F_materialize { dplan; mplan; _ } ->
      1
      + Dplan.count_ops dplan.Dplan.d_ops
      + Mplan.count_ops mplan.Plan_compile.p_ops
  | _ -> 1

let count_ops ops = List.fold_left (fun a o -> a + op_nodes o) 0 ops

(* Check sites: a run counts its source need and destination ensure
   separately; the self-checking variable ops count one each side;
   loop bodies count once (their interior runs are usually check-free
   under a hoisted reservation). *)
let rec op_checks = function
  | F_run { src_check; dst_check; _ } ->
      (if src_check then 1 else 0) + if dst_check then 1 else 0
  | F_blit _ | F_string _ | F_const_str _ | F_byteseq _ | F_atom_array _
  | F_counted_blit _ ->
      2
  | F_loop { src_ensure; dst_ensure; body; _ } ->
      (if src_ensure <> None then 1 else 0)
      + (if dst_ensure <> None then 1 else 0)
      + List.fold_left (fun a o -> a + op_checks o) 1 body
  | F_opt { body } ->
      List.fold_left (fun a o -> a + op_checks o) 1 body
  | F_materialize { dplan; mplan; _ } ->
      Dplan.count_checks dplan.Dplan.d_ops
      + Mplan.count_checks mplan.Plan_compile.p_ops
  | F_src_align _ | F_dst_align _ -> 0

let count_checks ops = List.fold_left (fun a o -> a + op_checks o) 0 ops
