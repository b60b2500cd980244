(* Structural tests on the optimizing plan compiler: the section 3
   decisions must actually appear in the plans. *)

let test name f = Alcotest.test_case name `Quick f

let rec ops_count pred ops =
  List.fold_left
    (fun acc (op : Mplan.op) ->
      let self = if pred op then 1 else 0 in
      let sub =
        match op with
        | Mplan.Loop { body; _ } -> ops_count pred body
        | Mplan.Switch { arms; default; _ } ->
            List.fold_left (fun a (arm : Mplan.arm) -> a + ops_count pred arm.Mplan.a_body) 0 arms
            + (match default with None -> 0 | Some (_, b) -> ops_count pred b)
        | _ -> 0
      in
      acc + self + sub)
    0 ops

let is_chunk = function Mplan.Chunk _ -> true | _ -> false
let is_ensure_count = function Mplan.Ensure_count _ -> true | _ -> false
let is_atom_array = function Mplan.Put_atom_array _ -> true | _ -> false
let is_call = function Mplan.Call _ -> true | _ -> false

let rv0 name = Mplan.Rparam { index = 0; name; deref = false }

let compile ?chunked enc mint named roots =
  Plan_compile.compile ~enc ~mint ~named ?chunked roots

let plan_tests =
  [
    test "the stat structure compiles to one chunk with one check" (fun () ->
        (* 30 int32 fields plus a 16-byte tag: the paper's fixed segment *)
        let m = Mint.create () in
        let fields = Mint.fixed_array m ~elem:(Mint.int32 m) ~len:30 in
        let tag = Mint.fixed_array m ~elem:(Mint.char8 m) ~len:16 in
        let stat = Mint.struct_ m [ ("fields", fields); ("tag", tag) ] in
        let pres =
          Pres.Struct
            [ ("fields", Pres.Fixed_array Pres.Direct); ("tag", Pres.Fixed_array Pres.Direct) ]
        in
        let plan =
          compile Encoding.xdr m [] [ Plan_compile.Rvalue (rv0 "s", stat, pres) ]
        in
        match plan.Plan_compile.p_ops with
        | [ Mplan.Chunk { size; items; check = true; _ } ] ->
            Alcotest.(check int) "size" 136 size;
            Alcotest.(check int) "items" 31 (List.length items)
        | ops ->
            Alcotest.failf "expected a single 136-byte chunk, got:@.%a" (fun ppf () -> Mplan.pp ppf ops) ())
    ;
    test "scalar sequences become a single tight-loop op" (fun () ->
        let m = Mint.create () in
        let seq = Mint.array m ~elem:(Mint.int32 m) ~min_len:0 ~max_len:None in
        let pres =
          Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
        in
        let plan =
          compile Encoding.xdr m [] [ Plan_compile.Rvalue (rv0 "a", seq, pres) ]
        in
        Alcotest.(check int) "one atom-array op" 1
          (ops_count is_atom_array plan.Plan_compile.p_ops);
        Alcotest.(check int) "no element loop" 0
          (ops_count (function Mplan.Loop _ -> true | _ -> false)
             plan.Plan_compile.p_ops))
    ;
    test "aggregate sequences get one reservation for the whole run" (fun () ->
        let m = Mint.create () in
        let pair = Mint.struct_ m [ ("x", Mint.int32 m); ("y", Mint.int32 m) ] in
        let seq = Mint.array m ~elem:pair ~min_len:0 ~max_len:None in
        let pres =
          Pres.Counted_seq
            {
              len_field = "len"; buf_field = "val";
              elem = Pres.Struct [ ("x", Pres.Direct); ("y", Pres.Direct) ];
            }
        in
        let plan =
          compile Encoding.xdr m [] [ Plan_compile.Rvalue (rv0 "a", seq, pres) ]
        in
        Alcotest.(check int) "ensure_count present" 1
          (ops_count is_ensure_count plan.Plan_compile.p_ops);
        (* the per-element chunks must skip their own checks *)
        Alcotest.(check int) "no checked chunks inside the loop" 0
          (ops_count
             (function Mplan.Chunk { check = true; _ } -> true | _ -> false)
             plan.Plan_compile.p_ops
          - ops_count
              (fun op ->
                match op with Mplan.Chunk { check = true; _ } -> true | _ -> false)
              (List.filter (function Mplan.Loop _ -> false | _ -> true)
                 plan.Plan_compile.p_ops)))
    ;
    test "chunked:false splits every atom into its own chunk" (fun () ->
        let m = Mint.create () in
        let s =
          Mint.struct_ m
            [ ("a", Mint.int32 m); ("b", Mint.int32 m); ("c", Mint.int32 m) ]
        in
        let pres =
          Pres.Struct [ ("a", Pres.Direct); ("b", Pres.Direct); ("c", Pres.Direct) ]
        in
        let merged =
          compile Encoding.xdr m [] [ Plan_compile.Rvalue (rv0 "s", s, pres) ]
        in
        let split =
          compile ~chunked:false Encoding.xdr m []
            [ Plan_compile.Rvalue (rv0 "s", s, pres) ]
        in
        Alcotest.(check int) "merged: one chunk" 1
          (ops_count is_chunk merged.Plan_compile.p_ops);
        Alcotest.(check int) "split: three chunks" 3
          (ops_count is_chunk split.Plan_compile.p_ops))
    ;
    test "recursion compiles to a named subroutine, not infinite inline"
      (fun () ->
        let m = Mint.create () in
        let node = Mint.reserve m in
        let next = Mint.array m ~elem:node ~min_len:0 ~max_len:(Some 1) in
        Mint.set m node (Mint.Struct [ ("v", Mint.int32 m); ("next", next) ]);
        let pres =
          Pres.Struct [ ("v", Pres.Direct); ("next", Pres.Opt_ptr (Pres.Ref "node")) ]
        in
        let plan =
          compile Encoding.xdr m [ ("node", (node, pres)) ]
            [ Plan_compile.Rvalue (rv0 "l", node, pres) ]
        in
        Alcotest.(check bool) "has subroutine" true
          (List.mem_assoc "node" plan.Plan_compile.p_subs);
        let sub = List.assoc "node" plan.Plan_compile.p_subs in
        Alcotest.(check int) "subroutine calls itself" 1 (ops_count is_call sub))
    ;
    test "CDR loses static positions after strings, XDR does not" (fun () ->
        let m = Mint.create () in
        let s =
          Mint.struct_ m
            [ ("name", Mint.string_ m ~max_len:None); ("n", Mint.int32 m) ]
        in
        let pres =
          Pres.Struct [ ("name", Pres.Terminated_string); ("n", Pres.Direct) ]
        in
        let cdr_plan =
          compile Encoding.cdr m [] [ Plan_compile.Rvalue (rv0 "s", s, pres) ]
        in
        let xdr_plan =
          compile Encoding.xdr m [] [ Plan_compile.Rvalue (rv0 "s", s, pres) ]
        in
        let aligns ops =
          ops_count (function Mplan.Align _ -> true | _ -> false) ops
        in
        (* CDR must realign dynamically before the int; XDR's 4-byte
           padding discipline keeps the position statically known *)
        Alcotest.(check bool) "cdr realigns" true (aligns cdr_plan.Plan_compile.p_ops >= 1);
        Alcotest.(check int) "xdr needs no dynamic align" 0
          (aligns xdr_plan.Plan_compile.p_ops))
    ;
    test "size: fixed, bounded and unbounded classes" (fun () ->
        let m = Mint.create () in
        let fixed = Mint.struct_ m [ ("a", Mint.int32 m); ("b", Mint.int32 m) ] in
        let fixed_pres = Pres.Struct [ ("a", Pres.Direct); ("b", Pres.Direct) ] in
        let bounded = Mint.string_ m ~max_len:(Some 16) in
        let unbounded = Mint.string_ m ~max_len:None in
        let size ?start enc idx pres =
          let { Plan_compile.min; max } =
            Plan_compile.size ~enc ~mint:m ~named:[] ?start idx pres
          in
          Printf.sprintf "%d..%s" min (Option.fold ~none:"inf" ~some:string_of_int max)
        in
        Alcotest.(check string) "fixed" "8..8" (size Encoding.xdr fixed fixed_pres);
        (* the length word, then at most 16 bytes, padded *)
        Alcotest.(check string) "bounded" "4..20"
          (size Encoding.xdr bounded Pres.Terminated_string);
        Alcotest.(check string) "unbounded" "4..inf"
          (size Encoding.xdr unbounded Pres.Terminated_string);
        (* an aligned start reserves no padding; an unknown one, at most
           three bytes before the first int *)
        Alcotest.(check string) "cdr, aligned" "8..8" (size Encoding.cdr fixed fixed_pres);
        Alcotest.(check string) "cdr, unaligned" "8..11"
          (size ~start:(1, 0) Encoding.cdr fixed fixed_pres);
        Alcotest.(check string) "cdr, two past a word" "8..10"
          (size ~start:(4, 2) Encoding.cdr fixed fixed_pres);
        Alcotest.(check string) "mach3 descriptors" "16..16"
          (size Encoding.mach3 fixed fixed_pres);
        Alcotest.(check string) "msgpack heads" "2..10"
          (size Encoding.msgpack fixed fixed_pres))
    ;
    test "constant string keys advance positions statically" (fun () ->
        (* after a constant operation key, CDR can still chunk the next
           fixed data: no dynamic Align between them *)
        let m = Mint.create () in
        let plan =
          compile Encoding.cdr m []
            [
              Plan_compile.Rconst_str "send";
              Plan_compile.Rvalue (rv0 "x", Mint.int32 m, Pres.Direct);
            ]
        in
        Alcotest.(check int) "no dynamic align" 0
          (ops_count (function Mplan.Align _ -> true | _ -> false)
             plan.Plan_compile.p_ops))
    ;
    test "size: the Bench rect and dirent in every encoding" (fun () ->
        (* the element of each sequence, from the loop body's position:
           only the encoding's granularity is known there *)
        let elem op =
          let ms = Paper_fixtures.request_spec (Paper_fixtures.bench_presc `Corba) ~op in
          let mint = ms.Paper_fixtures.ms_mint in
          match List.rev ms.Paper_fixtures.ms_roots with
          | Plan_compile.Rvalue (_, idx, Pres.Counted_seq { elem = sub; _ }) :: _ -> (
              match Mint.get mint idx with
              | Mint.Array { elem; _ } ->
                  fun enc ->
                    let { Plan_compile.min; max } =
                      Plan_compile.size ~enc ~mint ~named:ms.Paper_fixtures.ms_named
                        ~start:(max 1 enc.Encoding.granularity, 0) elem sub
                    in
                    Printf.sprintf "%d..%s" min
                      (Option.fold ~none:"inf" ~some:string_of_int max)
              | _ -> Alcotest.fail "not an array")
          | _ -> Alcotest.fail "not a counted sequence"
        in
        let rect = elem "send_rects" and dirent = elem "send_dirents" in
        List.iter
          (fun (enc, r, d) ->
            Alcotest.(check string) (enc.Encoding.name ^ " rect") r (rect enc);
            Alcotest.(check string) (enc.Encoding.name ^ " dirent") d (dirent enc))
          Encoding.
            [
              (xdr, "16..16", "140..inf");
              (cdr, "16..19", "140..inf");
              (fluke, "16..19", "140..inf");
              (mach3, "32..35", "152..inf");
              (msgpack, "4..20", "47..inf");
              (cbor, "4..20", "47..inf");
            ])
    ;
  ]

(* Plan-cache keys spell integers exactly as string_of_int does, so a
   key computed by any build of the cache is the same string. *)
let key_tests =
  [
    test "cache keys spell integers as string_of_int" (fun () ->
        List.iter
          (fun n ->
            let fp =
              Plan_cache.fp_create ~enc:Encoding.xdr ~mint:(Mint.create ())
                ~named:[] ()
            in
            let before = Plan_cache.fp_contents fp in
            Plan_cache.fp_int fp n;
            Alcotest.(check string) (string_of_int n)
              (before ^ "#" ^ string_of_int n)
              (Plan_cache.fp_contents fp))
          [ 0; 9; 10; 99; 4095; 4096; max_int; -1; min_int ]);
  ]

let suite = [ ("plan:structure", plan_tests); ("plan:cache-keys", key_tests) ]
