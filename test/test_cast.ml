(* Unit tests for the C abstract syntax tree printer. *)

open Cast

let test name f = Alcotest.test_case name `Quick f

let check_ctype name ty decl expected =
  test name (fun () ->
      Alcotest.(check string) name expected (Cast_pp.ctype ty decl))

let check_expr name e expected =
  test name (fun () ->
      Alcotest.(check string) name expected (Cast_pp.expr e))

let declarator_tests =
  [
    check_ctype "plain int" int32_t "x" "int32_t x";
    check_ctype "pointer" (Tptr Tchar) "s" "char *s";
    check_ctype "pointer to pointer" (Tptr (Tptr Tchar)) "pp" "char **pp";
    check_ctype "array" (Tarray (int32_t, Some 4)) "v" "int32_t v[4]";
    check_ctype "array of pointers" (Tarray (Tptr Tchar, Some 2)) "v"
      "char *v[2]";
    check_ctype "pointer to array" (Tptr (Tarray (int32_t, Some 8))) "p"
      "int32_t (*p)[8]";
    check_ctype "struct reference" (Tstruct_ref "foo") "f" "struct foo f";
    check_ctype "const char pointer" (Tconst_ptr Tchar) "s" "const char *s";
    check_ctype "function pointer"
      (Tfunc_ptr { ret = Tvoid; params = [ int32_t; Tptr Tchar ] })
      "cb" "void (*cb)(int32_t, char *)";
    check_ctype "abstract declarator" (Tptr Tvoid) "" "void *";
    check_ctype "2d array" (Tarray (Tarray (Tchar, Some 3), Some 2)) "m"
      "char m[2][3]";
    check_ctype "function pointer returning a pointer"
      (Tfunc_ptr { ret = Tptr Tchar; params = [] })
      "cb" "char *(*cb)(void)";
    check_ctype "array of function pointers"
      (Tarray (Tfunc_ptr { ret = Tvoid; params = [ int32_t ] }, Some 3))
      "tbl" "void (*tbl[3])(int32_t)";
    check_ctype "abstract pointer to array" (Tptr (Tarray (Tchar, None))) ""
      "char (*)[]";
    test "function prototype returning a pointer" (fun () ->
        Alcotest.(check string) "decl" "static char *f(int32_t x, void *p);\n"
          (Cast_pp.decl
             (Dfun_proto
                (Static, "f", Tptr Tchar, [ ("x", int32_t); ("p", Tptr Tvoid) ]))));
  ]

let expr_tests =
  [
    check_expr "precedence: mul over add"
      (Ebinop (Mul, Ebinop (Add, e0 "a", e0 "b"), e0 "c"))
      "(a + b) * c";
    check_expr "no spurious parens"
      (Ebinop (Add, Ebinop (Mul, e0 "a", e0 "b"), e0 "c"))
      "a * b + c";
    check_expr "left associativity"
      (Ebinop (Sub, Ebinop (Sub, e0 "a", e0 "b"), e0 "c"))
      "a - b - c";
    check_expr "right operand parens"
      (Ebinop (Sub, e0 "a", Ebinop (Sub, e0 "b", e0 "c")))
      "a - (b - c)";
    check_expr "shift inside compare"
      (Ebinop (Lt, Ebinop (Shl, e0 "a", num 2), e0 "b"))
      "a << 2 < b";
    check_expr "deref and field"
      (Efield (Eunop (Deref, e0 "p"), "x"))
      "(*p).x";
    check_expr "arrow" (Earrow (e0 "p", "x")) "p->x";
    check_expr "index of call"
      (Eindex (call "f" [ e0 "a" ], num 0))
      "f(a)[0]";
    check_expr "cast binds tighter than add"
      (Ebinop (Add, Ecast (uint32_t, e0 "x"), num 1))
      "(uint32_t)x + 1";
    check_expr "conditional"
      (Econd (e0 "c", e0 "a", e0 "b"))
      "c ? a : b";
    check_expr "assignment in expression"
      (Eassign (e0 "x", Ebinop (Add, e0 "x", num 1)))
      "x = x + 1";
    check_expr "string literal escaped"
      (Estr "a\"b\n")
      "\"a\\\"b\\n\"";
    check_expr "char literal" (Echar '\n') "'\\n'";
    check_expr "sizeof type" (Esizeof (Tstruct_ref "s")) "sizeof(struct s)";
    check_expr "sizeof expression"
      (Esizeof_expr (Eunop (Deref, e0 "p")))
      "sizeof(*p)";
    check_expr "int64 literal gets LL suffix"
      (Eint 0x2_0000_0001L) "8589934593LL";
    check_expr "logical and inside or"
      (Ebinop (Lor, e0 "a", Ebinop (Land, e0 "b", e0 "c")))
      "a || b && c";
    check_expr "or inside and"
      (Ebinop (Land, Ebinop (Lor, e0 "a", e0 "b"), e0 "c"))
      "(a || b) && c";
    check_expr "bitwise and inside equality"
      (Ebinop (Eq, Ebinop (Band, e0 "a", e0 "b"), e0 "c"))
      "(a & b) == c";
    check_expr "cast of a sum" (Ecast (uint32_t, Ebinop (Add, e0 "a", e0 "b")))
      "(uint32_t)(a + b)";
    check_expr "negated sum" (Eunop (Neg, Ebinop (Add, e0 "a", e0 "b")))
      "-(a + b)";
    check_expr "conditional as an operand"
      (Ebinop (Add, Econd (e0 "c", e0 "a", e0 "b"), num 1))
      "(c ? a : b) + 1";
    check_expr "nested conditional in the else arm"
      (Econd (e0 "c", e0 "a", Econd (e0 "d", e0 "b", e0 "e")))
      "c ? a : d ? b : e";
    check_expr "compound assignment of a shift"
      (Eassign_op (Bor, Eindex (e0 "v", num 0), Ebinop (Shl, e0 "x", num 8)))
      "v[0] |= x << 8";
    check_expr "assignment as a call argument"
      (call "f" [ Eassign (e0 "x", num 1); e0 "y" ])
      "f(x = 1, y)";
    check_expr "negative literal on the right of a minus"
      (Ebinop (Sub, e0 "a", Eint (-5L)))
      "a - -5";
    check_expr "field of a cast"
      (Efield (Ecast (Tstruct_ref "s", e0 "x"), "f"))
      "((struct s)x).f";
    check_expr "zero" (num 0) "0";
    check_expr "INT64_MIN" (Eint Int64.min_int) "(-9223372036854775807LL - 1)";
    check_expr "INT64_MAX" (Eint Int64.max_int) "9223372036854775807LL";
    check_expr "2^31" (Eint 0x8000_0000L) "2147483648LL";
    check_expr "2^31 - 1" (Eint 0x7fff_ffffL) "2147483647";
    check_expr "-2^31" (Eint (-0x8000_0000L)) "-2147483648";
    check_expr "-2^31 - 1" (Eint (-0x8000_0001L)) "-2147483649LL";
    check_expr "2^62" (Eint 0x4000_0000_0000_0000L) "4611686018427387904LL";
    check_expr "2^62 - 1" (Eint 0x3fff_ffff_ffff_ffffL) "4611686018427387903LL";
    check_expr "negative literal multiplied"
      (Ebinop (Mul, Eint (-3L), e0 "x"))
      "-3 * x";
    check_expr "char escapes" (Ecall ("f", [ Echar '\''; Echar '\128'; Echar 'a' ]))
      "f('\\'', '\\200', 'a')";
    check_expr "string escapes" (Estr "it's\t\001")
      "\"it's\\t\\001\"";
  ]

(* A unary operator and its operand's leading token must not run
   together into a different C token. *)
let unary_tests =
  [
    check_expr "minus of a negative literal" (Eunop (Neg, Eint (-5L))) "-(-5)";
    check_expr "minus of a minus" (Eunop (Neg, Eunop (Neg, e0 "x"))) "-(-x)";
    check_expr "address of an address" (Eunop (Addr, Eunop (Addr, e0 "x")))
      "&(&x)";
    check_expr "minus of a negative float" (Eunop (Neg, Efloat (-1.5))) "-(-1.5)";
    check_expr "minus of INT64_MIN" (Eunop (Neg, Eint Int64.min_int))
      "-(-9223372036854775807LL - 1)";
    check_expr "double deref" (Eunop (Deref, Eunop (Deref, e0 "p"))) "**p";
    check_expr "double not" (Eunop (Lognot, Eunop (Lognot, e0 "x"))) "!!x";
    check_expr "complement of a negative literal" (Eunop (Bitnot, Eint (-1L)))
      "~-1";
    check_expr "minus of a complement" (Eunop (Neg, Eunop (Bitnot, e0 "x")))
      "-~x";
    check_expr "minus of a positive literal" (Eunop (Neg, num 5)) "-5";
  ]

let stmt_tests =
  [
    test "if/else and loops print with breaks in switches" (fun () ->
        let s =
          Sswitch
            ( e0 "x",
              [
                { sc_labels = [ num 1 ]; sc_body = [ Sexpr (call "f" []) ] };
                { sc_labels = []; sc_body = [ Sreturn None ] };
              ] )
        in
        let printed = Cast_pp.stmt s in
        let contains needle =
          let nl = String.length needle and hl = String.length printed in
          let rec go i = i + nl <= hl && (String.sub printed i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "break appended" true (contains "break;");
        Alcotest.(check bool) "no break after return" false
          (contains "return;\n  break"));
    test "nesting deeper than the indentation run" (fun () ->
        let depth = 40 in
        let rec nest d = if d = depth then Sbreak else Sblock [ nest (d + 1) ] in
        let pad d = String.make (2 * (d + 3)) ' ' in
        let rec expected d =
          if d = depth then pad d ^ "break;\n"
          else pad d ^ "{\n" ^ expected (d + 1) ^ pad d ^ "}\n"
        in
        Alcotest.(check string) "two spaces per level" (expected 0)
          (Cast_pp.stmt ~indent:3 (nest 0)));
    test "labels and raw lines are not indented" (fun () ->
        Alcotest.(check string) "flush left" "  {\nout:\n#if X\n    x = 1;\n  }\n"
          (Cast_pp.stmt ~indent:1
             (Sblock [ Slabel "out"; Sraw "#if X"; Sexpr (Eassign (e0 "x", num 1)) ])));
    test "guarded header compiles stand-alone" (fun () ->
        let header =
          Cast_pp.guard "T_H"
            [
              Dinclude "stdint.h";
              Dtypedef ("pair", Tstruct_ref "pair");
              Dstruct ("pair", [ ("x", int32_t); ("y", int32_t) ]);
              Denum_decl ("color", [ ("RED", 0L); ("GREEN", 1L) ]);
              Dfun_proto (Public, "f", Tvoid, [ ("p", Tptr (Tnamed "pair")) ]);
            ]
        in
        let dir = Filename.get_temp_dir_name () in
        let path = Filename.concat dir "flick_cast_test.h" in
        let cpath = Filename.concat dir "flick_cast_test.c" in
        let oc = open_out path in
        output_string oc header;
        close_out oc;
        let oc = open_out cpath in
        output_string oc "#include \"flick_cast_test.h\"\nint main(void){return 0;}\n";
        close_out oc;
        let rc =
          Sys.command
            (Printf.sprintf "cd %s && gcc -std=c99 -Wall -Werror -c %s -o /dev/null 2>/dev/null"
               (Filename.quote dir) "flick_cast_test.c")
        in
        Alcotest.(check int) "gcc accepts" 0 rc);
  ]

let suite =
  [
    ("cast:declarators", declarator_tests);
    ("cast:expressions", expr_tests);
    ("cast:unary", unary_tests);
    ("cast:statements", stmt_tests);
  ]
