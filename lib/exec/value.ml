type view = { v_base : bytes; v_off : int; v_len : int }
type row_shape = Rint | Rstruct of row_shape array

type t =
  | Vvoid
  | Vbool of bool
  | Vchar of char
  | Vint of int
  | Vint64 of int64
  | Vfloat of float
  | Vstring of string
  | Vbytes of bytes
  | Vstring_view of view
  | Vbytes_view of view
  | Vint_array of int array
  | Vint_rows of { shape : row_shape; ints : int array }
  | Varray of t array
  | Vopt of t option
  | Vstruct of t array
  | Vunion of { case : int; discrim : Mint.const; payload : t }

let string_of_view v = Bytes.sub_string v.v_base v.v_off v.v_len
let bytes_of_view v = Bytes.sub v.v_base v.v_off v.v_len

let rec row_width = function
  | Rint -> 1
  | Rstruct fs -> Array.fold_left (fun acc f -> acc + row_width f) 0 fs

(* The rows' Varray spelling: each row rebuilt as nested structs of
   [Vint]s, taking the leaves in order (Array.init applies in order). *)
let boxed v =
  match v with
  | Vint_rows { shape; ints } ->
      let next = ref (-1) and w = row_width shape in
      let rec build = function
        | Rint ->
            incr next;
            Vint ints.(!next)
        | Rstruct fs -> Vstruct (Array.init (Array.length fs) (fun j -> build fs.(j)))
      in
      Varray (Array.init (if w = 0 then 0 else Array.length ints / w) (fun _ -> build shape))
  | _ -> v

(* Deep-copy every zero-copy view into owned storage; identity on
   view-free values. *)
let rec materialize v =
  match v with
  | Vstring_view w -> Vstring (string_of_view w)
  | Vbytes_view w -> Vbytes (bytes_of_view w)
  | Varray a -> Varray (Array.map materialize a)
  | Vopt (Some x) -> Vopt (Some (materialize x))
  | Vstruct a -> Vstruct (Array.map materialize a)
  | Vunion { case; discrim; payload } ->
      Vunion { case; discrim; payload = materialize payload }
  | Vvoid | Vbool _ | Vchar _ | Vint _ | Vint64 _ | Vfloat _ | Vstring _
  | Vbytes _ | Vint_array _ | Vint_rows _ | Vopt None ->
      v

type kind =
  | Kvoid
  | Kbool
  | Kchar
  | Kint
  | Kint64
  | Kfloat
  | Kstring
  | Kbytes
  | Kint_array of Encoding.atom_kind
  | Karray
  | Kopt
  | Kstruct
  | Kunion

let rep_kind mint idx (pres : Pres.t) =
  match (Mint.get mint idx, pres) with
  | _, Pres.Ref _ -> invalid_arg "Value.rep_kind: unresolved Ref"
  | Mint.Void, _ -> Kvoid
  | Mint.Bool, _ -> Kbool
  | Mint.Char8, _ -> Kchar
  | Mint.Int { bits = 64; _ }, _ -> Kint64
  | Mint.Int _, _ -> Kint
  | Mint.Float _, _ -> Kfloat
  | Mint.Array _, (Pres.Terminated_string | Pres.Terminated_string_len _) -> Kstring
  | Mint.Array _, Pres.Opt_ptr _ -> Kopt
  | Mint.Array { elem; _ }, (Pres.Fixed_array _ | Pres.Counted_seq _) -> (
      match Mint.get mint elem with
      | Mint.Char8 | Mint.Int { bits = 8; _ } -> Kbytes
      | Mint.Int { bits; signed } when bits <= 32 ->
          Kint_array (Encoding.Kint { bits; signed })
      | Mint.Void | Mint.Bool | Mint.Int _ | Mint.Float _ | Mint.Array _
      | Mint.Struct _ | Mint.Union _ ->
          Karray)
  | Mint.Array _, _ -> Karray
  | Mint.Struct _, _ -> Kstruct
  | Mint.Union _, _ -> Kunion

(* Range-wise byte comparison, so view forms compare without copying. *)
let range_equal xb xo xl yb yo yl =
  xl = yl
  &&
  let rec go i =
    i = xl || (Bytes.unsafe_get xb (xo + i) = Bytes.unsafe_get yb (yo + i) && go (i + 1))
  in
  go 0

let str_range s = (Bytes.unsafe_of_string s, 0, String.length s)
let bytes_range b = (b, 0, Bytes.length b)
let view_range v = (v.v_base, v.v_off, v.v_len)

(* Equality is by content: a view form equals the copy form holding the
   same bytes (string-like and bytes-like stay distinct families). *)
let rec equal a b =
  match (a, b) with
  | Vvoid, Vvoid -> true
  | Vbool x, Vbool y -> x = y
  | Vchar x, Vchar y -> x = y
  | Vint x, Vint y -> x = y
  | Vint64 x, Vint64 y -> Int64.equal x y
  | Vfloat x, Vfloat y -> x = y || (x <> x && y <> y)
  | (Vstring _ | Vstring_view _), (Vstring _ | Vstring_view _) ->
      let range = function
        | Vstring s -> str_range s
        | Vstring_view v -> view_range v
        | _ -> assert false
      in
      let xb, xo, xl = range a and yb, yo, yl = range b in
      range_equal xb xo xl yb yo yl
  | (Vbytes _ | Vbytes_view _), (Vbytes _ | Vbytes_view _) ->
      let range = function
        | Vbytes b -> bytes_range b
        | Vbytes_view v -> view_range v
        | _ -> assert false
      in
      let xb, xo, xl = range a and yb, yo, yl = range b in
      range_equal xb xo xl yb yo yl
  | Vint_array x, Vint_array y -> x = y
  | Vint_rows x, Vint_rows y when x.shape = y.shape -> x.ints = y.ints
  | Vint_rows _, (Vint_rows _ | Varray _) | Varray _, Vint_rows _ ->
      equal (boxed a) (boxed b)
  | Varray x, Varray y | Vstruct x, Vstruct y ->
      Array.length x = Array.length y && Array.for_all2 equal x y
  | Vopt x, Vopt y -> (
      match (x, y) with
      | None, None -> true
      | Some x, Some y -> equal x y
      | None, Some _ | Some _, None -> false)
  | Vunion x, Vunion y ->
      x.case = y.case
      && Mint.equal_const x.discrim y.discrim
      && equal x.payload y.payload
  | ( ( Vvoid | Vbool _ | Vchar _ | Vint _ | Vint64 _ | Vfloat _ | Vstring _
      | Vbytes _ | Vstring_view _ | Vbytes_view _ | Vint_array _ | Vint_rows _
      | Varray _ | Vopt _ | Vstruct _ | Vunion _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Vvoid -> Format.pp_print_string ppf "()"
  | Vbool b -> Format.fprintf ppf "%B" b
  | Vchar c -> Format.fprintf ppf "%C" c
  | Vint n -> Format.fprintf ppf "%d" n
  | Vint64 n -> Format.fprintf ppf "%LdL" n
  | Vfloat f -> Format.fprintf ppf "%h" f
  | Vstring s -> Format.fprintf ppf "%S" s
  | Vbytes b -> Format.fprintf ppf "bytes%S" (Bytes.to_string b)
  | Vstring_view v -> Format.fprintf ppf "view%S" (string_of_view v)
  | Vbytes_view v -> Format.fprintf ppf "bview%S" (string_of_view v)
  | Vint_array a ->
      Format.fprintf ppf "@[<hov 2>[|%a|]@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           Format.pp_print_int)
        (Array.to_list a)
  | Vint_rows _ as v -> pp ppf (boxed v)
  | Varray a ->
      Format.fprintf ppf "@[<hov 2>[%a]@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        (Array.to_list a)
  | Vopt None -> Format.pp_print_string ppf "null"
  | Vopt (Some v) -> Format.fprintf ppf "&%a" pp v
  | Vstruct fields ->
      Format.fprintf ppf "@[<hov 2>{%a}@]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp)
        (Array.to_list fields)
  | Vunion { case; discrim; payload } ->
      Format.fprintf ppf "@[<hov 2>union[%d=%a](%a)@]" case Mint.pp_const
        discrim pp payload

let length = function
  | Vstring s -> String.length s
  | Vbytes b -> Bytes.length b
  | Vstring_view v | Vbytes_view v -> v.v_len
  | Vint_array a -> Array.length a
  | Vint_rows { shape; ints } -> Array.length ints / max 1 (row_width shape)
  | Varray a -> Array.length a
  | Vopt None -> 0 | Vopt (Some _) -> 1
  | Vvoid | Vbool _ | Vchar _ | Vint _ | Vint64 _ | Vfloat _ | Vstruct _ | Vunion _ -> invalid_arg "Value.length"

let rec byte_size = function
  | Vvoid -> 0
  | Vbool _ | Vchar _ -> 1
  | Vint _ | Vfloat _ -> 4
  | Vint64 _ -> 8
  | Vstring s -> String.length s
  | Vbytes b -> Bytes.length b
  | Vstring_view v | Vbytes_view v -> v.v_len
  | Vint_array a | Vint_rows { ints = a; _ } -> 4 * Array.length a
  | Varray a -> Array.fold_left (fun acc v -> acc + byte_size v) 0 a
  | Vopt None -> 0
  | Vopt (Some v) -> byte_size v
  | Vstruct fields -> Array.fold_left (fun acc v -> acc + byte_size v) 0 fields
  | Vunion { payload; _ } -> 4 + byte_size payload
