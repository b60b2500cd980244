let random ?(string_max = 24) ?(seq_max = 6) ?(depth_limit = 6) rng mint ~named
    root_idx root_pres =
  (* Draw the magnitude's bit length first, then the value and its sign,
     so every header width of the self-describing encodings (fixints,
     1/2/4/8-byte payloads) occurs, where a uniform draw almost always
     lands in the widest. *)
  let rand_int bits signed =
    let w = 1 + Random.State.int rng (if signed then bits - 1 else bits) in
    let v = Random.State.full_int rng (1 lsl w) in
    if signed && Random.State.bool rng then -1 - v else v
  in
  let rand_int64 signed =
    let w = 1 + Random.State.int rng (if signed then 63 else 64) in
    let v = Int64.shift_right_logical (Random.State.bits64 rng) (64 - w) in
    if signed && Random.State.bool rng then Int64.lognot v else v
  in
  let rand_char () = Char.chr (32 + Random.State.int rng 95) in
  let rand_string n =
    String.init (Random.State.int rng (n + 1)) (fun _ -> rand_char ())
  in
  let rec go depth idx (pres : Pres.t) : Value.t =
    let def = Mint.get mint idx in
    match (def, pres) with
    | _, Pres.Ref name -> (
        match List.assoc_opt name named with
        | None -> invalid_arg ("Workload.random: unknown presentation " ^ name)
        | Some (sidx, spres) -> go (depth + 1) sidx spres)
    | Mint.Void, _ -> Value.Vvoid
    | Mint.Bool, _ -> Value.Vbool (Random.State.bool rng)
    | Mint.Char8, _ -> Value.Vchar (rand_char ())
    | Mint.Int { bits = 64; signed }, _ -> Value.Vint64 (rand_int64 signed)
    | Mint.Int { bits; signed }, _ -> Value.Vint (rand_int bits signed)
    | Mint.Float { bits = 32 }, _ ->
        (* values exactly representable in single precision *)
        Value.Vfloat (float_of_int (Random.State.int rng 1000000))
    | Mint.Float _, _ ->
        Value.Vfloat (Random.State.float rng 1e9)
    | ( Mint.Array { elem = _; min_len = _; max_len },
        (Pres.Terminated_string | Pres.Terminated_string_len _) ) ->
        let bound = match max_len with Some b -> min b string_max | None -> string_max in
        Value.Vstring (rand_string bound)
    | Mint.Array { elem; min_len; max_len }, Pres.Fixed_array sub -> (
        ignore max_len;
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            Value.Vbytes
              (Bytes.init min_len (fun _ ->
                   Char.chr (Random.State.int rng 256)))
        | Mint.Int { bits; signed } when bits <= 32 ->
            Value.Vint_array (Array.init min_len (fun _ -> rand_int bits signed))
        | _ -> Value.Varray (Array.init min_len (fun _ -> go (depth + 1) elem sub)))
    | Mint.Array { elem; min_len; max_len }, Pres.Counted_seq { elem = sub; _ }
      -> (
        let lo = min_len in
        let hi =
          match max_len with
          | Some b -> min b (lo + seq_max)
          | None -> lo + seq_max
        in
        let n =
          if depth > depth_limit then lo
          else lo + Random.State.int rng (hi - lo + 1)
        in
        match Mint.get mint elem with
        | Mint.Char8 | Mint.Int { bits = 8; _ } ->
            Value.Vbytes
              (Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)))
        | Mint.Int { bits; signed } when bits <= 32 ->
            Value.Vint_array (Array.init n (fun _ -> rand_int bits signed))
        | _ -> Value.Varray (Array.init n (fun _ -> go (depth + 1) elem sub)))
    | Mint.Array { elem; _ }, Pres.Opt_ptr sub ->
        if depth > depth_limit || Random.State.bool rng then Value.Vopt None
        else Value.Vopt (Some (go (depth + 1) elem sub))
    | Mint.Struct fields, Pres.Struct arms ->
        Value.Vstruct
          (Array.of_list
             (List.map2
                (fun (_, fidx) (_, sub) -> go (depth + 1) fidx sub)
                fields arms))
    | Mint.Union { discrim = _; cases; default }, Pres.Union { arms; default_arm; _ }
      ->
        let n_cases = List.length cases in
        let with_default = default <> None && default_arm <> None in
        let pick = Random.State.int rng (n_cases + if with_default then 1 else 0) in
        if pick < n_cases then begin
          let case = List.nth cases pick in
          let _, sub = List.nth arms pick in
          Value.Vunion
            {
              case = pick;
              discrim = case.Mint.c_const;
              payload = go (depth + 1) case.Mint.c_body sub;
            }
        end
        else begin
          (* a discriminator value not covered by any labeled case *)
          let used =
            List.filter_map
              (fun (c : Mint.case) ->
                match c.Mint.c_const with
                | Mint.Cint n -> Some n
                | Mint.Cbool _ | Mint.Cchar _ | Mint.Cstring _ -> None)
              cases
          in
          let rec fresh candidate =
            if List.mem candidate used then fresh (Int64.add candidate 1L)
            else candidate
          in
          let didx = match default with Some d -> d | None -> assert false in
          let _, sub = match default_arm with Some a -> a | None -> assert false in
          Value.Vunion
            {
              case = -1;
              discrim = Mint.Cint (fresh 1000L);
              payload = go (depth + 1) didx sub;
            }
        end
    | (Mint.Array _ | Mint.Struct _ | Mint.Union _), _ ->
        invalid_arg "Workload.random: PRES does not match MINT"
  in
  go 0 root_idx root_pres

(* ------------------------------------------------------------------ *)
(* The paper's three evaluation payloads                                *)
(* ------------------------------------------------------------------ *)

let int_array bytes =
  let n = max 1 (bytes / 4) in
  Value.Vint_array (Array.init n (fun i -> (i * 2654435761) land 0x7FFFFFFF))

let rect_array bytes =
  let n = max 1 (bytes / 16) in
  let coord i j = Value.Vstruct [| Value.Vint (i + j); Value.Vint (i - j) |] in
  Value.Varray
    (Array.init n (fun i -> Value.Vstruct [| coord i 0; coord i 1 |]))

let dirent_name_length = 112

let dirent_array bytes =
  (* each encoded entry is roughly 256 bytes: a ~112-byte name (plus its
     length prefix and padding) and the fixed 136-byte stat structure *)
  let n = max 1 (bytes / 256) in
  let name i =
    let base = Printf.sprintf "file-%08d-" i in
    base ^ String.make (dirent_name_length - String.length base) 'x'
  in
  let stat i =
    Value.Vstruct
      [|
        Value.Vint_array (Array.init 30 (fun k -> (i * 31) + k));
        Value.Vbytes (Bytes.make 16 (Char.chr (65 + (i mod 26))));
      |]
  in
  Value.Varray
    (Array.init n (fun i -> Value.Vstruct [| Value.Vstring (name i); stat i |]))
