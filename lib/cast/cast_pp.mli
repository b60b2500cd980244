(** Rendering CAST as compilable C source text.

    The printer is deliberately deterministic and simple: two-space
    indentation, one statement per line, parentheses inserted from a
    standard C precedence table only where required (and around a
    unary operand that would otherwise fuse with its operator into
    another token, as in [-(-x)]).  Declarators are printed inside-out
    (arrays, pointers, function pointers), following C's declaration
    syntax.  Each call below prints straight into one fresh buffer;
    nothing is kept between calls. *)

val ctype : Cast.ctype -> string -> string
(** [ctype ty name] renders a declarator: the type wrapped around the
    (possibly empty) declared name, e.g. [ctype (Tptr Tchar) "s"] is
    ["char *s"] and [ctype (Tarray (int32_t, Some 4)) "v"] is
    ["int32_t v[4]"]. *)

val expr : Cast.expr -> string
val stmt : ?indent:int -> Cast.stmt -> string
val decl : Cast.decl -> string

val file : Cast.file -> string
(** Render a whole translation unit. *)

val guard : string -> Cast.file -> string
(** Render a header file wrapped in an include guard. *)
