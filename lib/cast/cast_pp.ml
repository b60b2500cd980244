open Cast

(* Every printer appends to the buffer it is handed: a rendered file is
   one buffer, and the string-returning entry points at the bottom are
   thin wrappers that each create a fresh one.  Nothing is kept between
   calls. *)

let str = Buffer.add_string
let chr = Buffer.add_char

let str3 buf pre s post =
  str buf pre;
  str buf s;
  str buf post

let int64 buf n =
  if Int64.compare n 0L >= 0 && Int64.compare n (Int64.of_int max_int) <= 0
  then Decimal.add_int buf (Int64.to_int n)
  else str buf (Int64.to_string n)

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

(* C declarations wrap the declared name: the base specifier on the
   left, then each type constructor's left part innermost first, the
   name, and the right parts outermost first.  [star] says whether the
   text inside this constructor starts with a pointer's '*'; an array or
   function suffix directly outside one must parenthesize it. *)
let rec base buf ty =
  match ty with
  | Tvoid -> str buf "void"
  | Tchar -> str buf "char"
  | Tnamed n -> str buf n
  | Tfloat -> str buf "float"
  | Tdouble -> str buf "double"
  | Tstruct_ref n ->
      str buf "struct ";
      str buf n
  | Tunion_ref n ->
      str buf "union ";
      str buf n
  | Tenum_ref n ->
      str buf "enum ";
      str buf n
  | Tptr t | Tarray (t, _) | Tfunc_ptr { ret = t; _ } -> base buf t
  | Tconst_ptr t ->
      str buf "const ";
      base buf t

let rec lefts buf ty star =
  match ty with
  | Tptr t | Tconst_ptr t ->
      lefts buf t true;
      chr buf '*'
  | Tarray (t, _) ->
      lefts buf t false;
      if star then chr buf '('
  | Tfunc_ptr { ret; _ } ->
      lefts buf ret false;
      str buf "(*"
  | Tvoid | Tchar | Tnamed _ | Tfloat | Tdouble | Tstruct_ref _ | Tunion_ref _
  | Tenum_ref _ -> ()

let rec rights buf ty star =
  match ty with
  | Tptr t | Tconst_ptr t -> rights buf t true
  | Tarray (t, n) ->
      if star then chr buf ')';
      chr buf '[';
      (match n with Some n -> Decimal.add_int buf n | None -> ());
      chr buf ']';
      rights buf t false
  | Tfunc_ptr { ret; params } ->
      str buf ")(";
      (match params with
      | [] -> str buf "void"
      | p :: ps ->
          declare buf p "" None;
          List.iter (fun p -> str buf ", "; declare buf p "" None) ps);
      chr buf ')';
      rights buf ret false
  | Tvoid | Tchar | Tnamed _ | Tfloat | Tdouble | Tstruct_ref _ | Tunion_ref _
  | Tenum_ref _ -> ()

(* [declare buf ty name params] writes the declaration of [name] at type
   [ty]; with [Some params] the name is a function's, followed by its
   parameter list and [ty] is its return type. *)
and declare buf ty name params =
  base buf ty;
  match (ty, name, params) with
  | (Tvoid | Tchar | Tnamed _ | Tfloat | Tdouble | Tstruct_ref _ | Tunion_ref _
    | Tenum_ref _), "", None -> ()
  | _ ->
      chr buf ' ';
      let star = String.length name > 0 && name.[0] = '*' in
      lefts buf ty star;
      str buf name;
      (match params with
      | None -> ()
      | Some [] -> str buf "(void)"
      | Some ((n, t) :: ps) ->
          chr buf '(';
          declare buf t n None;
          List.iter (fun (n, t) -> str buf ", "; declare buf t n None) ps;
          chr buf ')');
      rights buf ty star

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let binop_token = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

let binop_prec = function
  | Mul | Div | Mod -> 13
  | Add | Sub -> 12
  | Shl | Shr -> 11
  | Lt | Gt | Le | Ge -> 10
  | Eq | Ne -> 9
  | Band -> 8
  | Bxor -> 7
  | Bor -> 6
  | Land -> 5
  | Lor -> 4

let unop_token = function
  | Neg -> "-" | Lognot -> "!" | Bitnot -> "~" | Deref -> "*" | Addr -> "&"

(* A negative literal is a unary minus applied to a constant; INT64_MIN
   prints as a parenthesized subtraction. *)
let negative_int n = Int64.compare n 0L < 0 && not (Int64.equal n Int64.min_int)

let prec_of = function
  | Eid _ | Echar _ | Estr _ | Efloat _ -> 16
  | Eint n -> if negative_int n then 14 else 16
  | Ecall _ | Efield _ | Earrow _ | Eindex _ -> 15
  | Eunop _ | Ecast _ | Esizeof _ | Esizeof_expr _ -> 14
  | Ebinop (op, _, _) -> binop_prec op
  | Econd _ -> 3
  | Eassign _ | Eassign_op _ -> 2

(* Operands that would fuse with their unary operator into another C
   token: [- -5] into a decrement, [& &x] into a logical and. *)
let fuses op a =
  match (op, a) with
  | Neg, Eunop (Neg, _) -> true
  | Neg, Eint n -> negative_int n
  | Neg, Efloat f -> Float.sign_bit f
  | Addr, Eunop (Addr, _) -> true
  | _ -> false

let escape_char buf c =
  match c with
  | '\n' -> str buf "\\n"
  | '\t' -> str buf "\\t"
  | '\r' -> str buf "\\r"
  | '\000' -> str buf "\\0"
  | '\\' -> str buf "\\\\"
  | '\'' -> str buf "\\'"
  | c when Char.code c >= 32 && Char.code c < 127 -> chr buf c
  | c ->
      let k = Char.code c in
      chr buf '\\';
      chr buf (Char.unsafe_chr (48 + (k lsr 6)));
      chr buf (Char.unsafe_chr (48 + ((k lsr 3) land 7)));
      chr buf (Char.unsafe_chr (48 + (k land 7)))

(* [prec] is the precedence of the context; parenthesize when the
   expression binds less tightly. *)
let rec expr_in buf prec e =
  if prec_of e < prec then begin
    chr buf '(';
    expr_body buf e;
    chr buf ')'
  end
  else expr_body buf e

and expr_body buf e =
  match e with
  | Eid s -> str buf s
  | Eint n ->
      if Int64.equal n Int64.min_int then str buf "(-9223372036854775807LL - 1)"
      else begin
        int64 buf n;
        if Int64.compare n (Int64.of_int32 Int32.max_int) > 0
           || Int64.compare n (Int64.of_int32 Int32.min_int) < 0
        then str buf "LL"
      end
  | Echar c ->
      chr buf '\'';
      escape_char buf c;
      chr buf '\''
  | Estr s ->
      chr buf '"';
      String.iter
        (function
          | '"' -> str buf "\\\""
          | '\'' -> chr buf '\''
          | c -> escape_char buf c)
        s;
      chr buf '"'
  | Efloat f -> Printf.bprintf buf "%.17g" f
  | Ecall (f, args) ->
      str buf f;
      chr buf '(';
      (match args with
      | [] -> ()
      | a :: rest ->
          expr_in buf 0 a;
          List.iter (fun a -> str buf ", "; expr_in buf 0 a) rest);
      chr buf ')'
  | Eunop (op, a) ->
      str buf (unop_token op);
      if fuses op a then begin
        chr buf '(';
        expr_body buf a;
        chr buf ')'
      end
      else expr_in buf 14 a
  | Ebinop (op, a, b) ->
      let p = binop_prec op in
      expr_in buf p a;
      chr buf ' ';
      str buf (binop_token op);
      chr buf ' ';
      (* left-associative: the right operand needs strictly higher prec *)
      expr_in buf (p + 1) b
  | Efield (a, f) ->
      expr_in buf 15 a;
      chr buf '.';
      str buf f
  | Earrow (a, f) ->
      expr_in buf 15 a;
      str buf "->";
      str buf f
  | Eindex (a, i) ->
      expr_in buf 15 a;
      chr buf '[';
      expr_in buf 0 i;
      chr buf ']'
  | Ecast (ty, a) ->
      chr buf '(';
      declare buf ty "" None;
      chr buf ')';
      expr_in buf 14 a
  | Eassign (l, r) ->
      expr_in buf 15 l;
      str buf " = ";
      expr_in buf 2 r
  | Eassign_op (op, l, r) ->
      expr_in buf 15 l;
      chr buf ' ';
      str buf (binop_token op);
      str buf "= ";
      expr_in buf 2 r
  | Econd (c, a, b) ->
      expr_in buf 4 c;
      str buf " ? ";
      expr_in buf 0 a;
      str buf " : ";
      expr_in buf 3 b
  | Esizeof ty ->
      str buf "sizeof(";
      declare buf ty "" None;
      chr buf ')'
  | Esizeof_expr e ->
      str buf "sizeof(";
      expr_in buf 0 e;
      chr buf ')'

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* two spaces per level, copied from this literal a run at a time *)
let spaces = "                                "

let rec pad buf n =
  if n <= String.length spaces then Buffer.add_substring buf spaces 0 n
  else begin
    str buf spaces;
    pad buf (n - String.length spaces)
  end

let indent buf ind = pad buf (2 * ind)

let rec ends_in_jump = function
  | [] -> false
  | [ (Sreturn _ | Sbreak | Scontinue | Sgoto _) ] -> true
  | [ _ ] -> false
  | _ :: rest -> ends_in_jump rest

let opt_expr buf = function None -> () | Some e -> expr_in buf 0 e

let rec stmt_in buf ind s =
  match s with
  | Sexpr e ->
      indent buf ind;
      expr_in buf 0 e;
      str buf ";\n"
  | Sdecl (name, ty, init) ->
      indent buf ind;
      declare buf ty name None;
      (match init with
      | None -> ()
      | Some e ->
          str buf " = ";
          expr_in buf 0 e);
      str buf ";\n"
  | Sif (c, then_s, else_s) ->
      indent buf ind;
      str buf "if (";
      expr_in buf 0 c;
      str buf ") {\n";
      body buf ind then_s;
      (match else_s with
      | [] -> ()
      | _ ->
          indent buf ind;
          str buf "} else {\n";
          body buf ind else_s);
      close buf ind
  | Swhile (c, b) ->
      indent buf ind;
      str buf "while (";
      expr_in buf 0 c;
      str buf ") {\n";
      body buf ind b;
      close buf ind
  | Sfor (init, cond, step, b) ->
      indent buf ind;
      str buf "for (";
      opt_expr buf init;
      str buf "; ";
      opt_expr buf cond;
      str buf "; ";
      opt_expr buf step;
      str buf ") {\n";
      body buf ind b;
      close buf ind
  | Sreturn None ->
      indent buf ind;
      str buf "return;\n"
  | Sreturn (Some e) ->
      indent buf ind;
      str buf "return ";
      expr_in buf 0 e;
      str buf ";\n"
  | Sswitch (scrutinee, cases) ->
      indent buf ind;
      str buf "switch (";
      expr_in buf 0 scrutinee;
      str buf ") {\n";
      List.iter
        (fun { sc_labels; sc_body } ->
          (match sc_labels with
          | [] ->
              indent buf ind;
              str buf "default:\n"
          | ls ->
              List.iter
                (fun l ->
                  indent buf ind;
                  str buf "case ";
                  expr_in buf 0 l;
                  str buf ":\n")
                ls);
          body buf ind sc_body;
          if not (ends_in_jump sc_body) then stmt_in buf (ind + 1) Sbreak)
        cases;
      close buf ind
  | Sbreak ->
      indent buf ind;
      str buf "break;\n"
  | Scontinue ->
      indent buf ind;
      str buf "continue;\n"
  | Sgoto l ->
      indent buf ind;
      str3 buf "goto " l ";\n"
  | Slabel l ->
      str buf l;
      str buf ":\n"
  | Sblock b ->
      indent buf ind;
      str buf "{\n";
      body buf ind b;
      close buf ind
  | Scomment text ->
      indent buf ind;
      str3 buf "/* " text " */\n"
  | Sraw text ->
      str buf text;
      chr buf '\n'

(* the statements of a block, one level inside [ind] *)
and body buf ind ss = List.iter (stmt_in buf (ind + 1)) ss

and close buf ind =
  indent buf ind;
  str buf "}\n"

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let storage buf = function Public -> () | Static -> str buf "static "

let fields buf kind tag fs =
  str3 buf kind tag " {\n";
  List.iter
    (fun (n, ty) ->
      str buf "  ";
      declare buf ty n None;
      str buf ";\n")
    fs;
  str buf "};\n"

let decl_in buf d =
  match d with
  | Dinclude path -> str3 buf "#include <" path ">\n"
  | Dinclude_local path -> str3 buf "#include \"" path "\"\n"
  | Dcomment text -> str3 buf "/* " text " */\n"
  | Ddefine (name, value) ->
      str3 buf "#define " name " ";
      str buf value;
      chr buf '\n'
  | Dtypedef (name, ty) ->
      str buf "typedef ";
      declare buf ty name None;
      str buf ";\n"
  | Dstruct (tag, fs) -> fields buf "struct " tag fs
  | Dunion_decl (tag, fs) -> fields buf "union " tag fs
  | Denum_decl (tag, items) ->
      str3 buf "enum " tag " {\n";
      List.iter
        (fun (n, v) ->
          str3 buf "  " n " = ";
          int64 buf v;
          str buf ",\n")
        items;
      str buf "};\n"
  | Dvar (st, name, ty, init) ->
      storage buf st;
      declare buf ty name None;
      (match init with
      | None -> ()
      | Some e ->
          str buf " = ";
          expr_in buf 0 e);
      str buf ";\n"
  | Dfun_proto (st, name, ret, params) ->
      storage buf st;
      declare buf ret name (Some params);
      str buf ";\n"
  | Dfun (st, name, ret, params, b) ->
      storage buf st;
      declare buf ret name (Some params);
      str buf "\n{\n";
      List.iter (stmt_in buf 1) b;
      str buf "}\n"
  | Draw text ->
      str buf text;
      chr buf '\n'

(* declarations one after another, a blank line before each except the
   first and the preprocessor lines *)
let decls_in buf decls =
  List.iteri
    (fun i d ->
      (match (i, d) with
      | 0, _ | _, (Dinclude _ | Dinclude_local _ | Ddefine _) -> ()
      | _, _ -> chr buf '\n');
      decl_in buf d)
    decls

(* ------------------------------------------------------------------ *)
(* Entry points: one fresh buffer each                                 *)
(* ------------------------------------------------------------------ *)

let render size f =
  let buf = Buffer.create size in
  f buf;
  Buffer.contents buf

let ctype ty name = render 32 (fun buf -> declare buf ty name None)
let expr e = render 64 (fun buf -> expr_in buf 0 e)
let stmt ?(indent = 0) s = render 128 (fun buf -> stmt_in buf indent s)
let decl d = render 256 (fun buf -> decl_in buf d)
let file decls = render 4096 (fun buf -> decls_in buf decls)

let guard name decls =
  let g =
    String.map
      (function ('A' .. 'Z' | '0' .. '9') as c -> c | _ -> '_')
      (String.uppercase_ascii name)
  in
  render 4096 (fun buf ->
      str3 buf "#ifndef " g "\n#define ";
      str buf g;
      str buf "\n\n";
      decls_in buf decls;
      str3 buf "\n#endif /* " g " */\n")
