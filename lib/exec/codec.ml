exception Decode_error = Encoding.Var_error

let as_int (v : Value.t) =
  match v with
  | Value.Vint n -> n
  | Value.Vbool b -> if b then 1 else 0
  | Value.Vchar c -> Char.code c
  | Value.Vint64 n -> Int64.to_int n
  | Value.Vvoid | Value.Vfloat _ | Value.Vstring _ | Value.Vbytes _
  | Value.Vstring_view _ | Value.Vbytes_view _ | Value.Vint_array _
  | Value.Vint_rows _ | Value.Varray _ | Value.Vopt _ | Value.Vstruct _
  | Value.Vunion _ ->
      invalid_arg "Codec.as_int"

let as_int64 (v : Value.t) =
  match v with
  | Value.Vint64 n -> n
  | Value.Vint n -> Int64.of_int n
  | _ -> invalid_arg "Codec.as_int64"

let as_float (v : Value.t) =
  match v with Value.Vfloat f -> f | _ -> invalid_arg "Codec.as_float"

let int_of_value (kind : Encoding.atom_kind) v =
  match kind with
  | Encoding.Kbool -> ( match v with Value.Vbool b -> (if b then 1 else 0) | _ -> as_int v)
  | Encoding.Kchar -> ( match v with Value.Vchar c -> Char.code c | _ -> as_int v)
  | Encoding.Kint _ -> as_int v
  | Encoding.Kfloat _ -> invalid_arg "Codec.int_of_value: float"

(* -- stores ---------------------------------------------------------- *)

let write_at buf ~be off (atom : Mplan.atom) v =
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kfloat { bits = 32 }, _ ->
      if be then Mbuf.set_f32_be buf off (as_float v)
      else Mbuf.set_f32_le buf off (as_float v)
  | Encoding.Kfloat _, _ ->
      if be then Mbuf.set_f64_be buf off (as_float v)
      else Mbuf.set_f64_le buf off (as_float v)
  | Encoding.Kint { bits = 64; _ }, _ ->
      if be then Mbuf.set_i64_be buf off (as_int64 v)
      else Mbuf.set_i64_le buf off (as_int64 v)
  | _, 1 -> Mbuf.set_u8 buf off (int_of_value atom.Mplan.kind v)
  | _, 2 ->
      if be then Mbuf.set_i16_be buf off (int_of_value atom.Mplan.kind v)
      else Mbuf.set_i16_le buf off (int_of_value atom.Mplan.kind v)
  | _, 4 ->
      if be then Mbuf.set_i32_be buf off (int_of_value atom.Mplan.kind v)
      else Mbuf.set_i32_le buf off (int_of_value atom.Mplan.kind v)
  | _, n -> invalid_arg (Printf.sprintf "Codec.write_at: size %d" n)

let write_const_at buf ~be off (atom : Mplan.atom) value =
  match (atom.Mplan.kind, atom.Mplan.size) with
  | Encoding.Kint { bits = 64; _ }, _ ->
      if be then Mbuf.set_i64_be buf off value else Mbuf.set_i64_le buf off value
  | _, 1 -> Mbuf.set_u8 buf off (Int64.to_int value)
  | _, 2 ->
      if be then Mbuf.set_i16_be buf off (Int64.to_int value)
      else Mbuf.set_i16_le buf off (Int64.to_int value)
  | _, 4 ->
      if be then Mbuf.set_i32_be buf off (Int64.to_int value)
      else Mbuf.set_i32_le buf off (Int64.to_int value)
  | _, n -> invalid_arg (Printf.sprintf "Codec.write_const_at: size %d" n)

let write_stream buf ~be (atom : Mplan.atom) v =
  Mbuf.align buf atom.Mplan.align;
  Mbuf.ensure buf atom.Mplan.size;
  write_at buf ~be 0 atom v;
  Mbuf.advance buf atom.Mplan.size

(* -- reads ----------------------------------------------------------- *)

let sign_extend n bits =
  let shift = Sys.int_size - bits in
  (n lsl shift) asr shift

let read_at r ~be off (atom : Mplan.atom) : Value.t =
  match atom.Mplan.kind with
  | Encoding.Kfloat { bits = 32 } ->
      Value.Vfloat (if be then Mbuf.get_f32_be r off else Mbuf.get_f32_le r off)
  | Encoding.Kfloat _ ->
      Value.Vfloat (if be then Mbuf.get_f64_be r off else Mbuf.get_f64_le r off)
  | Encoding.Kint { bits = 64; _ } ->
      Value.Vint64 (if be then Mbuf.get_i64_be r off else Mbuf.get_i64_le r off)
  | Encoding.Kbool -> (
      let n =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: bool size %d" n)
      in
      match n with
      | 0 -> Value.Vbool false
      | 1 -> Value.Vbool true
      | n -> raise (Decode_error (Printf.sprintf "invalid boolean %d" n)))
  | Encoding.Kchar ->
      let n =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: char size %d" n)
      in
      if n < 0 || n > 255 then
        raise (Decode_error (Printf.sprintf "invalid character %d" n))
      else Value.Vchar (Char.chr n)
  | Encoding.Kint { bits; signed } ->
      let raw =
        match atom.Mplan.size with
        | 1 -> Mbuf.get_u8 r off
        | 2 -> (if be then Mbuf.get_i16_be r off else Mbuf.get_i16_le r off)
        | 4 -> (if be then Mbuf.get_i32_be r off else Mbuf.get_i32_le r off)
        | n -> invalid_arg (Printf.sprintf "Codec: int size %d" n)
      in
      let v =
        if signed then sign_extend raw bits
        else if bits >= 32 then raw land 0xFFFFFFFF
        else raw land ((1 lsl bits) - 1)
      in
      Value.Vint v

let read_stream r ~be (atom : Mplan.atom) =
  Mbuf.ralign r atom.Mplan.align;
  Mbuf.need r atom.Mplan.size;
  let v = read_at r ~be 0 atom in
  Mbuf.skip r atom.Mplan.size;
  v

(* -- in-window integer kernels ---------------------------------------- *)

(* [load] and [store] are inlined into each loop below with [swap] a
   constant, so a loop makes no call and tests no flag per element. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] load ~swap b at =
  Int32.to_int (if swap then bswap32 (get32u b at) else get32u b at)

let[@inline] store ~swap b at v =
  let w = Int32.of_int v in
  set32u b at (if swap then bswap32 w else w)

(* a signed 32-bit word comes back as it is, an unsigned one keeps its
   low 32 bits *)
let[@inline] fill32 ~swap ~signed out b cur =
  for i = 0 to Array.length out - 1 do
    let w = load ~swap b (cur + (i * 4)) in
    Array.unsafe_set out i (if signed then w else w land 0xffff_ffff)
  done

(* One of four 32-bit loops, or the loop that keeps a narrower
   element's low [bits] bits, shifted to the top of the int and back,
   arithmetically when signed and logically when not. *)
let fill_words ~be ~signed ~bits : int array -> bytes -> int -> int -> unit =
  let swap = be <> Sys.big_endian in
  match (bits, swap, signed) with
  | 32, true, true -> fun out b cur _ -> fill32 ~swap:true ~signed:true out b cur
  | 32, true, false -> fun out b cur _ -> fill32 ~swap:true ~signed:false out b cur
  | 32, false, true -> fun out b cur _ -> fill32 ~swap:false ~signed:true out b cur
  | 32, false, false -> fun out b cur _ -> fill32 ~swap:false ~signed:false out b cur
  | _ ->
      let shift = Sys.int_size - bits in
      fun out b cur _ ->
        for i = 0 to Array.length out - 1 do
          let w = load ~swap b (cur + (i * 4)) lsl shift in
          Array.unsafe_set out i (if signed then w asr shift else w lsr shift)
        done

(* row [i]'s word [j] at [cur + i * size + offs.(j)], narrowed as above *)
let[@inline] fill_strided ~swap ~signed ~shift offs size out b cur =
  let k = Array.length offs in
  for i = 0 to (Array.length out / k) - 1 do
    let at = cur + (i * size) and o = i * k in
    for j = 0 to k - 1 do
      let w = load ~swap b (at + Array.unsafe_get offs j) lsl shift in
      Array.unsafe_set out (o + j) (if signed then w asr shift else w lsr shift)
    done
  done

let read_i32_rows ~be ~signed ~bits ~size ~offs =
  let k = Array.length offs and shift = Sys.int_size - bits in
  let fill : int array -> bytes -> int -> int -> unit =
    if size = 4 * k && offs = Array.init k (fun j -> 4 * j) then
      fill_words ~be ~signed ~bits
    else
      match (be <> Sys.big_endian, signed) with
      | true, true -> fun out b cur _ -> fill_strided ~swap:true ~signed:true ~shift offs size out b cur
      | true, false -> fun out b cur _ -> fill_strided ~swap:true ~signed:false ~shift offs size out b cur
      | false, true -> fun out b cur _ -> fill_strided ~swap:false ~signed:true ~shift offs size out b cur
      | false, false -> fun out b cur _ -> fill_strided ~swap:false ~signed:false ~shift offs size out b cur
  in
  fun r n ->
    Mbuf.need r (n * size);
    let out = Array.make (n * k) 0 in
    Mbuf.window r fill out;
    Mbuf.skip r (n * size);
    out

let read_i32s ~be ~signed ~bits =
  let read = read_i32_rows ~be ~signed ~bits ~size:4 ~offs:[| 0 |] in
  fun r n ->
    Mbuf.ralign r 4;
    read r n

let[@inline] int_elem v = match v with Value.Vint n -> n | v -> as_int v

let[@inline] store_run ~swap v b at =
  match v with
  | Value.Vint_array a ->
      for i = 0 to Array.length a - 1 do
        store ~swap b (at + (i * 4)) (Array.unsafe_get a i)
      done
  | Value.Varray a ->
      for i = 0 to Array.length a - 1 do
        store ~swap b (at + (i * 4)) (int_elem (Array.unsafe_get a i))
      done
  | _ -> invalid_arg "Codec.write_i32s: not an integer array"

let write_i32s ~be =
  let run : Value.t -> bytes -> int -> int -> unit =
    if be <> Sys.big_endian then fun v b at _ -> store_run ~swap:true v b at
    else fun v b at _ -> store_run ~swap:false v b at
  in
  fun w v -> Mbuf.wwindow w run v

(* -- row kernels ---------------------------------------------------- *)

(* A kernel leaves the first element not spelled as the row, and all
   after it, to the caller, as it does a tree of more than two levels.
   Leaf [j] of a boxed row is its field [i], or field [g] of that field,
   a struct of [m] fields, for [(i, g, m) = leaves.(j)]. *)
let paths_of shape =
  let fs = match shape with Value.Rstruct fs -> fs | Value.Rint -> [||] in
  let leaf i = function
    | Value.Rint -> [ (i, -1, 0) ]
    | Value.Rstruct sub ->
        Array.to_list (Array.mapi (fun g f -> if f = Value.Rint then (i, g, Array.length sub) else (-1, 0, 0)) sub)
  in
  let leaves = List.concat (List.mapi leaf (Array.to_list fs)) in
  if List.exists (fun (i, _, _) -> i < 0) leaves then None else Some (Array.length fs, Array.of_list leaves)

(* leaf [j] of row [r], [Vvoid] where [r] is not spelled as the shape *)
let[@inline] row_leaf leaves (r : Value.t array) j =
  let i, g, m = Array.unsafe_get leaves j in
  match Array.unsafe_get r i with
  | Value.Vstruct c when g >= 0 && Array.length c = m -> Array.unsafe_get c g
  | v when g < 0 -> v
  | _ -> Value.Vvoid

(* a row's constant and gap words *)
let[@inline] fill_row ~swap fill b at =
  for f = 0 to Array.length fill - 1 do
    let off, w = Array.unsafe_get fill f in
    store ~swap b (at + off) w
  done

let[@inline] store_rows ~swap ~size offs fill paths v b at =
  let k = Array.length offs and i = ref 0 in
  (match (v, paths) with
  | Value.Vint_rows { ints; _ }, _ when size = 4 * k && fill = [||] ->
      (* gapless rows are one run of words *)
      for j = 0 to Array.length ints - 1 do
        store ~swap b (at + (4 * j)) (Array.unsafe_get ints j)
      done;
      i := Array.length ints / k
  | Value.Vint_rows { ints; _ }, _ ->
      while !i < Array.length ints / k do
        fill_row ~swap fill b (at + (!i * size));
        for j = 0 to k - 1 do
          store ~swap b (at + (!i * size) + Array.unsafe_get offs j) (Array.unsafe_get ints ((!i * k) + j))
        done;
        incr i
      done
  | Value.Varray a, Some (nf, leaves) -> (
      try
        while !i < Array.length a do
          let at = at + (!i * size) in
          (match Array.unsafe_get a !i with
          | Value.Vstruct r when Array.length r = nf ->
              for j = 0 to k - 1 do
                match row_leaf leaves r j with
                | Value.Vint x -> store ~swap b (at + Array.unsafe_get offs j) x
                | _ -> raise Exit
              done
          | _ -> raise Exit);
          fill_row ~swap fill b at;
          incr i
        done
      with Exit -> ())
  | _ -> ());
  !i

let write_i32_rows ~be ~align ~size ~offs ~fill ~shape =
  let paths = paths_of shape in
  let run : Value.t -> bytes -> int -> int -> int =
    if be <> Sys.big_endian then fun v b at _ -> store_rows ~swap:true ~size offs fill paths v b at
    else fun v b at _ -> store_rows ~swap:false ~size offs fill paths v b at
  in
  fun w (v : Value.t) ->
    match v with
    | (Value.Varray [||] | Value.Vint_rows { ints = [||]; _ }) -> 0
    | Value.Vint_rows { shape = s; _ } when s <> shape -> 0
    | Value.Varray _ | Value.Vint_rows _ ->
        if align > 1 then Mbuf.align w align;
        let rows = Mbuf.wwindow w run v in
        Mbuf.advance w (rows * size);
        rows
    | _ -> 0

let write_var_rows vc ~bits ~signed ~shape =
  let paths = paths_of shape and put = Encoding.var_put_int_at vc ~bits ~signed
  and put_ints = Encoding.var_put_ints vc ~bits ~signed in
  (* rows lsl 31 lor bytes *)
  let run a b at _ =
    let i = ref 0 and pos = ref at in
    (try
       while !i < Array.length a do
         (match (Array.unsafe_get a !i, paths) with
         | Value.Vstruct r, Some (nf, leaves) when Array.length r = nf ->
             let p = ref !pos in
             for j = 0 to Array.length leaves - 1 do
               match row_leaf leaves r j with Value.Vint x -> p := !p + put b !p x | _ -> raise Exit
             done;
             pos := !p
         | _ -> raise Exit);
         incr i
       done
     with Exit -> ());
    (!i lsl 31) lor (!pos - at)
  in
  fun w (v : Value.t) ->
    match v with
    | Value.Vint_rows { shape = s; ints } when s = shape ->
        put_ints w ints;
        Array.length ints / Value.row_width shape
    | Value.Varray a ->
        let got = Mbuf.wwindow w run a in
        Mbuf.advance w (got land 0x7fff_ffff);
        got lsr 31
    | _ -> 0

(* a relay's run whose two layouts differ only in byte order *)
let swap_i32s r w n =
  Mbuf.window r
    (fun w src s _ ->
      Mbuf.wwindow w
        (fun () dst d _ ->
          for i = 0 to n - 1 do
            set32u dst (d + (i * 4)) (bswap32 (get32u src (s + (i * 4))))
          done)
        ())
    w

let[@inline] check_fixed n len =
  if n <> len then
    invalid_arg (Printf.sprintf "fixed array of %d elements where its type has %d" n len)

(* member [idxs.(k)] of the aggregate (a fixed array of [len >= 0]) at offset [offs.(k)] *)
let[@inline] store_fields ~swap ~len offs idxs v b at =
  let n = Array.length offs in
  match v with
  | Value.Vint_array a ->
      if len >= 0 then check_fixed (Array.length a) len;
      for k = 0 to n - 1 do
        store ~swap b (at + Array.unsafe_get offs k) a.(idxs.(k))
      done
  | Value.Vstruct a | Value.Varray a ->
      if len >= 0 then check_fixed (Array.length a) len;
      for k = 0 to n - 1 do
        store ~swap b (at + Array.unsafe_get offs k) (int_elem a.(idxs.(k)))
      done
  | Value.Vbytes s ->
      for k = 0 to n - 1 do
        store ~swap b (at + Array.unsafe_get offs k) (Char.code (Bytes.get s idxs.(k)))
      done
  | _ -> invalid_arg "Codec.write_i32_fields: not an aggregate"

let write_i32_fields ~be ~len ~offs ~idxs =
  let run : Value.t -> bytes -> int -> int -> unit =
    if be <> Sys.big_endian then fun v b at _ ->
      store_fields ~swap:true ~len offs idxs v b at
    else fun v b at _ -> store_fields ~swap:false ~len offs idxs v b at
  in
  fun w v -> Mbuf.wwindow w run v

(* -- shared length/padding helpers ----------------------------------- *)

let read_len r ~be ~align =
  Mbuf.ralign r align;
  let n = Mbuf.read_i32 r ~be in
  if n < 0 then raise (Decode_error "negative length");
  n

let check_bounds ~what n ~min_len ~max_len =
  if n < min_len then
    raise (Decode_error (Printf.sprintf "%s shorter than minimum" what));
  match max_len with
  | Some m when n > m ->
      raise (Decode_error (Printf.sprintf "%s exceeds its bound" what))
  | Some _ | None -> ()

let check_max ~what n max_len =
  match max_len with
  | Some m when n > m ->
      invalid_arg (Printf.sprintf "%s of length %d exceeds its bound %d" what n m)
  | Some _ | None -> ()

let skip_pad r ~pad_unit n =
  let padded = (n + pad_unit - 1) / pad_unit * pad_unit in
  if padded > n then Mbuf.skip r (padded - n)

(* -- value-dependent wire formats ------------------------------------ *)

(* The one Value.t mapping onto Encoding's variable-header emitters and
   parsers, shared by every engine (plan-driven, rpcgen-style,
   interpretive) so they all emit and accept exactly the same bytes.  A
   char or an integer field of at most 32 bits stays a native int end
   to end.  Malformed headers raise [Decode_error] (the same exception
   as [Encoding.Var_error]); truncation stays [Mbuf.Short_buffer]. *)

let write_var_int vc ~check (kind : Encoding.atom_kind) buf n =
  match kind with
  | Encoding.Kbool -> Encoding.var_put_bool vc ~check buf (n <> 0)
  | Encoding.Kchar -> Encoding.var_put_int vc ~check buf (n land 0xFF)
  | Encoding.Kint { bits; signed } when bits <= 32 ->
      (* truncate to the declared width first, the same round trip a
         fixed-size store performs *)
      Encoding.var_put_int vc ~check buf
        (if signed then sign_extend n bits else n land ((1 lsl bits) - 1))
  | Encoding.Kint { bits; signed } ->
      Encoding.var_put_int64 vc ~check ~signed buf
        (Encoding.canon_int ~bits ~signed (Int64.of_int n))
  | Encoding.Kfloat _ -> invalid_arg "Codec.write_var_int: float"

let write_var vc ~check (kind : Encoding.atom_kind) buf v =
  match kind with
  | Encoding.Kfloat { bits } ->
      Encoding.var_put_float vc ~check ~bits buf (as_float v)
  | Encoding.Kint { bits; signed } when bits > 32 ->
      Encoding.var_put_int64 vc ~check ~signed buf
        (Encoding.canon_int ~bits ~signed (as_int64 v))
  | Encoding.Kbool | Encoding.Kchar | Encoding.Kint _ ->
      write_var_int vc ~check kind buf (int_of_value kind v)

let read_var vc (kind : Encoding.atom_kind) r : Value.t =
  match kind with
  | Encoding.Kbool -> Value.Vbool (Encoding.var_get_bool vc r)
  | Encoding.Kchar -> Value.Vchar (Char.chr (Encoding.var_get_int vc kind r))
  | Encoding.Kint { bits; _ } when bits <= 32 ->
      Value.Vint (Encoding.var_get_int vc kind r)
  | Encoding.Kint { signed; _ } ->
      Value.Vint64 (Encoding.var_get_int64 vc ~signed r)
  | Encoding.Kfloat { bits } -> Value.Vfloat (Encoding.var_get_float vc ~bits r)

let write_vlen vc ~check (lk : Encoding.lenkind) buf n =
  Encoding.var_put_len vc ~check buf lk n

let read_vlen vc (lk : Encoding.lenkind) r = Encoding.var_get_len vc lk r

(* A count read off the wire allocates nothing until its elements could
   fit in the bytes that remain, each taking at least [min_elem]. *)
let need_elems r n ~min_elem =
  if n * min_elem > Mbuf.remaining r then raise Mbuf.Short_buffer

let const_to_value (c : Mint.const) : Value.t =
  match c with
  | Mint.Cint n -> Value.Vint (Int64.to_int n)
  | Mint.Cbool b -> Value.Vbool b
  | Mint.Cchar c -> Value.Vchar c
  | Mint.Cstring s -> Value.Vstring s

let const_matches (c : Mint.const) (v : Value.t) =
  match (c, v) with
  | Mint.Cint n, Value.Vint m -> Int64.to_int n = m
  | Mint.Cbool b, Value.Vbool b' -> b = b'
  | Mint.Cchar c, Value.Vchar c' -> c = c'
  | Mint.Cstring s, Value.Vstring s' -> String.equal s s'
  | _, _ -> false
