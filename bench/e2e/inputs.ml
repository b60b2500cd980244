(* Seeded inputs.  Each workload draws from its own stream, derived
   from the seed and the workload's name, and the program only ever
   sees the generated IDL text and values.

   The seed picks contents, not amounts of work: counts and sizes are
   fixed or stratified (every stratum of the range drawn equally
   often, in seeded order), so two seeds give different inputs whose
   total cost is nearly the same, and a spread over seeds measures the
   program, not the draw. *)

let rng ~seed name = Random.State.make [| seed; Hashtbl.hash name |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* [n] integers covering [lo, hi] evenly, in seeded order. *)
let balanced st n lo hi =
  let span = hi - lo + 1 in
  shuffle st (Array.init n (fun i -> lo + (((2 * i) + 1) * span / (2 * n))))

(* [n] sizes on a ladder log-spaced from [lo] to [hi] bytes, each
   jittered by the seed within 1%, in seeded order.  A ladder rather
   than free draws: the largest messages dominate a round's rate and
   its tail, and a free draw of the top sizes would move both from
   seed to seed. *)
let log_sizes st n lo hi =
  let r = log (float_of_int hi /. float_of_int lo) in
  shuffle st
    (Array.init n (fun i ->
         let u = if n = 1 then 0. else float_of_int i /. float_of_int (n - 1) in
         int_of_float (float_of_int lo *. exp (u *. r) *. (0.99 +. Random.State.float st 0.02))))

(* ------------------------------------------------------------------ *)
(* Synthetic CORBA interfaces                                           *)
(* ------------------------------------------------------------------ *)

(* Primitive types grouped by wire size: the skeleton picks a group,
   the seed one of its members. *)
let prim_groups =
  [| [| "long"; "unsigned long" |]; [| "short"; "unsigned short" |];
     [| "octet"; "char"; "boolean" |]; [| "double" |]; [| "float" |];
     [| "long long"; "unsigned long long" |] |]

(* Field shapes.  Nested structs and struct sequences refer only to
   the first two structs of an interface, which hold none themselves,
   so nesting depth (and the code it inlines) stays bounded. *)
type shape = Prim | Fixed_array | Prim_seq | Str | Nested | Struct_seq

let shapes = [| Prim; Prim; Fixed_array; Prim_seq; Str; Nested; Struct_seq |]

(* The skeleton of the synthetic interfaces -- counts, shapes, sizes,
   references, parameter directions -- comes from this fixed stream, so
   every seed compiles the same amount of code: compile cost varies
   with the skeleton by tens of percent, far more than any bound.  The
   seed draws the contents: every identifier, the member of each
   primitive group, and the order of the operations. *)
let skeleton_seed = 0x5eed

(* [count] interfaces of 2-11 structs with 1-8 fields each and 1-12
   operations of 0-3 parameters. *)
let synthetic_idls st ~count =
  let sk = Random.State.make [| skeleton_seed |] in
  let n_structs = balanced sk count 2 11 in
  let n_ops = balanced sk count 1 12 in
  let total_structs = Array.fold_left ( + ) 0 n_structs in
  let n_fields = balanced sk total_structs 1 8 in
  let total_fields = Array.fold_left ( + ) 0 n_fields in
  let field_shapes = balanced sk total_fields 0 (Array.length shapes - 1) in
  let total_ops = Array.fold_left ( + ) 0 n_ops in
  let n_params = balanced sk total_ops 0 3 in
  let next a = let i = ref (-1) in fun () -> incr i; a.(!i) in
  let next_fields = next n_fields
  and next_shape = next field_shapes
  and next_params = next n_params in
  let prim () =
    let g = prim_groups.(Random.State.int sk (Array.length prim_groups)) in
    g.(Random.State.int st (Array.length g))
  in
  let name prefix i =
    Printf.sprintf "%s%d_%s" prefix i (String.init 5 (fun _ -> Char.chr (97 + Random.State.int st 26)))
  in
  List.init count (fun k ->
      let b = Buffer.create 1024 in
      let ns = n_structs.(k) in
      let structs = Array.init ns (name "S") in
      for j = 0 to ns - 1 do
        Printf.bprintf b "struct %s {" structs.(j);
        for f = 0 to next_fields () - 1 do
          let leaf () = structs.(Random.State.int sk 2) in
          let ty, suffix =
            match shapes.(next_shape ()) with
            | Prim -> (prim (), "")
            | Fixed_array -> (prim (), Printf.sprintf "[%d]" (2 + Random.State.int sk 7))
            | Prim_seq -> (Printf.sprintf "sequence<%s>" (prim ()), "")
            | Str -> ("string", "")
            | Nested when j >= 2 -> (leaf (), "")
            | Struct_seq when j >= 2 -> (Printf.sprintf "sequence<%s>" (leaf ()), "")
            | Nested | Struct_seq -> (prim (), "")
          in
          Printf.bprintf b " %s %s%s;" ty (name "f" f) suffix
        done;
        Printf.bprintf b " };\ntypedef sequence<%s> %s_seq;\n" structs.(j) structs.(j)
      done;
      Printf.bprintf b "interface %s {\n" (name "Synth" k);
      let ty () =
        match Random.State.int sk 4 with
        | 0 -> prim ()
        | 1 -> "string"
        | 2 -> structs.(Random.State.int sk ns) ^ "_seq"
        | _ -> structs.(Random.State.int sk ns)
      in
      let ops =
        Array.init n_ops.(k) (fun o ->
            let ret = if Random.State.bool sk then "void" else ty () in
            let params =
              List.init (next_params ()) (fun p ->
                  let dir =
                    match Random.State.int sk 4 with 0 -> "inout" | 1 -> "out" | _ -> "in"
                  in
                  Printf.sprintf "%s %s %s" dir (ty ()) (name "p" p))
            in
            Printf.sprintf "  %s %s(%s);\n" ret (name "op" o) (String.concat ", " params))
      in
      Array.iter (Buffer.add_string b) (shuffle st ops);
      Buffer.add_string b "};\n";
      Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* The paper's three payloads, seeded                                   *)
(* ------------------------------------------------------------------ *)

type kind = Ints | Rects | Dirents

let kind_name = function Ints -> "ints" | Rects -> "rects" | Dirents -> "dirents"
let kind_tag = function Ints -> `Ints | Rects -> `Rects | Dirents -> `Dirents

let int31 st = Random.State.bits st

(* The shapes of Workload.int_array/rect_array/dirent_array (so the
   same Paper_fixtures operations marshal them), with seeded contents:
   4 bytes per int, 16 per rectangle, about 256 per directory entry. *)
let payload st kind ~bytes =
  match kind with
  | Ints -> Value.Vint_array (Array.init (max 1 (bytes / 4)) (fun _ -> int31 st))
  | Rects ->
      let coord () = Value.Vstruct [| Value.Vint (int31 st); Value.Vint (int31 st) |] in
      Value.Varray
        (Array.init (max 1 (bytes / 16)) (fun _ -> Value.Vstruct [| coord (); coord () |]))
  | Dirents ->
      let name () =
        String.init Workload.dirent_name_length (fun _ ->
            Char.chr (97 + Random.State.int st 26))
      in
      let stat () =
        Value.Vstruct
          [|
            Value.Vint_array (Array.init 30 (fun _ -> int31 st));
            Value.Vbytes (Bytes.init 16 (fun _ -> Char.chr (Random.State.int st 256)));
          |]
      in
      Value.Varray
        (Array.init (max 1 (bytes / 256)) (fun _ ->
             Value.Vstruct [| Value.Vstring (name ()); stat () |]))

(* The Bench operation for a payload kind under the presentation an
   encoding's server uses (Rpc_serve.style_of_enc's mapping). *)
let bench_spec (enc : Encoding.t) kind =
  let style =
    match enc.Encoding.name with "cdr" -> `Corba | "xdr" -> `Rpcgen | _ -> `Fluke
  in
  Paper_fixtures.request_spec (Paper_fixtures.bench_presc style)
    ~op:(Paper_fixtures.op_of_payload (kind_tag kind))
