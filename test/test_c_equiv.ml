(* The strongest cross-validation: the marshal statements the C back end
   emits, compiled by gcc and executed, must produce byte-for-byte the
   same message as the OCaml stub engine executing the same plan.

   This closes the loop on the central design decision (one marshal
   plan, two consumers): the loopback tests prove generated C is
   self-consistent, the qcheck properties prove the engines agree with
   each other, and this test proves C and engine agree. *)

let test name f = Alcotest.test_case name `Quick f

let hex b =
  String.concat ""
    (List.map (Printf.sprintf "%02x")
       (List.map Char.code (List.of_seq (String.to_seq (Bytes.to_string b)))))

(* the value under test: two rectangles and a string, exercising chunks,
   fused loops, string blits and padding *)
let mint_and_pres () =
  let m = Mint.create () in
  let coord = Mint.struct_ m [ ("x", Mint.int32 m); ("y", Mint.int32 m) ] in
  let rect = Mint.struct_ m [ ("min", coord); ("max", coord) ] in
  let rects = Mint.array m ~elem:rect ~min_len:0 ~max_len:(Some 8) in
  let s = Mint.string_ m ~max_len:(Some 32) in
  let payload = Mint.struct_ m [ ("name", s); ("boxes", rects) ] in
  let coord_pres = Pres.Struct [ ("x", Pres.Direct); ("y", Pres.Direct) ] in
  let pres =
    Pres.Struct
      [
        ("name", Pres.Terminated_string);
        ( "boxes",
          Pres.Counted_seq
            {
              len_field = "_length";
              buf_field = "_buffer";
              elem = Pres.Struct [ ("min", coord_pres); ("max", coord_pres) ];
            } );
      ]
  in
  (m, payload, pres)

let value =
  Value.Vstruct
    [|
      Value.Vstring "cross-check";
      Value.Varray
        [|
          Value.Vstruct
            [|
              Value.Vstruct [| Value.Vint 1; Value.Vint (-2) |];
              Value.Vstruct [| Value.Vint 300000; Value.Vint 4 |];
            |];
          Value.Vstruct
            [|
              Value.Vstruct [| Value.Vint (-5); Value.Vint 6 |];
              Value.Vstruct [| Value.Vint 7; Value.Vint 8 |];
            |];
        |];
    |]

(* C initializers for the same value, against the generated-style types *)
let c_value_decl =
  {c|
typedef struct { int32_t x; int32_t y; } coord;
typedef struct { coord min; coord max; } rect;
typedef struct { uint32_t _length; rect *_buffer; } rect_seq;
typedef struct { char *name; rect_seq boxes; } payload;

static rect boxes[2] = {
  { { 1, -2 }, { 300000, 4 } },
  { { -5, 6 }, { 7, 8 } },
};
static payload v = { "cross-check", { 2, boxes } };
|c}

let slurp dir f =
  try
    let ic = open_in_bin (Filename.concat dir f) in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error _ -> "<missing>"

(* Build [decl] and the marshal statements of [roots] under [enc] into
   a program that prints the message it marshals in hex, in a fresh
   directory named by [tag]; return a runner taking the program's
   arguments to (exit status, stdout, stderr). *)
let c_marshaller ~tag ~enc ~mint ~decl roots =
  let plan = Plan_compile.compile ~enc ~mint ~named:[] roots in
  let stmts = Cgen.marshal_stmts ~enc plan.Plan_compile.p_ops in
  let body = String.concat "" (List.map (Cast_pp.stmt ~indent:1) stmts) in
  let main_c =
    Printf.sprintf
      {c|#include <stdio.h>
#include "flick_runtime.h"
%s
int main(int argc, char **argv)
{
  size_t i;
  flick_buf_t buf_store;
  flick_buf_t *_buf = &buf_store;
  (void)argv;
  pick(argc);
  flick_buf_init(_buf);
%s
  for (i = 0; i < _buf->pos; i++) printf("%%02x", (unsigned char)_buf->data[i]);
  printf("\n");
  return 0;
}
|c}
      decl body
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flick-cequiv-%d-%s-%s" (Unix.getpid ()) tag enc.Encoding.name)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Runtime.write_to dir;
  let oc = open_out (Filename.concat dir "main.c") in
  output_string oc main_c;
  close_out oc;
  if
    Sys.command
      (Printf.sprintf "cd %s && gcc -std=c99 -Wall -Wno-unused-function main.c -o eq 2>build.err"
         (Filename.quote dir))
    <> 0
  then Alcotest.failf "C build failed:\n%s\n--- main.c ---\n%s" (slurp dir "build.err") main_c;
  fun args ->
    let rc =
      Sys.command
        (Printf.sprintf "cd %s && ./eq %s > out.txt 2> err.txt" (Filename.quote dir) args)
    in
    (rc, String.trim (slurp dir "out.txt"), slurp dir "err.txt")

let engine_hex ~enc ~mint roots v =
  let encoder = Stub_opt.compile_encoder ~enc ~mint ~named:[] roots in
  let b = Mbuf.create 256 in
  encoder b [| v |];
  hex (Mbuf.contents b)

let c_equiv_case enc =
  test
    (Printf.sprintf "generated C bytes equal engine bytes (%s)"
       enc.Encoding.name)
    (fun () ->
      let m, idx, pres = mint_and_pres () in
      let roots =
        [
          Plan_compile.Rvalue
            (Mplan.Rparam { index = 0; name = "(v)"; deref = false }, idx, pres);
        ]
      in
      let run =
        c_marshaller ~tag:"rects" ~enc ~mint:m
          ~decl:(c_value_decl ^ "static void pick(int argc) { (void)argc; }\n")
          roots
      in
      let rc, got, err = run "" in
      if rc <> 0 then Alcotest.failf "C run failed (%d): %s" rc err;
      Alcotest.(check string) "bytes" (engine_hex ~enc ~mint:m roots value) got)

(* A loop reserves a bounded element at its bound and stores the rest
   of the element unchecked, so the emitted C must refuse an over-long
   string before it stores it, as the engines do. *)
let bound_case () =
  test "an over-long bounded string fails before the stores (xdr)" (fun () ->
      let enc = Encoding.xdr in
      let m = Mint.create () in
      let named_t = Mint.struct_ m [ ("n", Mint.string_ m ~max_len:(Some 4)); ("x", Mint.int32 m) ] in
      let seq = Mint.array m ~elem:named_t ~min_len:0 ~max_len:(Some 8) in
      let pres =
        Pres.Counted_seq
          {
            len_field = "_length";
            buf_field = "_buffer";
            elem = Pres.Struct [ ("n", Pres.Terminated_string); ("x", Pres.Direct) ];
          }
      in
      let roots =
        [ Plan_compile.Rvalue (Mplan.Rparam { index = 0; name = "(v)"; deref = false }, seq, pres) ]
      in
      let decl =
        {c|
typedef struct { char *n; int32_t x; } named;
typedef struct { uint32_t _length; named *_buffer; } named_seq;
static named fits[2] = { { "abcd", 1 }, { "xy", -2 } };
static named too_long[2] = { { "abcdefghijklmnopqrstuvwxyz", 1 }, { "xy", -2 } };
static named_seq v = { 2, fits };
static void pick(int argc) { if (argc > 1) v._buffer = too_long; }
|c}
      in
      let elems names =
        Value.Varray
          (Array.of_list
             (List.mapi (fun i s -> Value.Vstruct [| Value.Vstring s; Value.Vint (if i = 0 then 1 else -2) |]) names))
      in
      let run = c_marshaller ~tag:"bound" ~enc ~mint:m ~decl roots in
      let rc, got, err = run "" in
      if rc <> 0 then Alcotest.failf "C run failed (%d): %s" rc err;
      Alcotest.(check string) "within the bound: the engine's bytes"
        (engine_hex ~enc ~mint:m roots (elems [ "abcd"; "xy" ]))
        got;
      let rc, got, err = run "too-long" in
      Alcotest.(check bool) "over the bound: the C stub aborts" true (rc <> 0);
      (* the shell may add its own line about the abort *)
      Alcotest.(check string) "with the bound message" "flick: length exceeds bound"
        (List.hd (String.split_on_char '\n' err));
      Alcotest.(check string) "having printed nothing" "" got;
      match engine_hex ~enc ~mint:m roots (elems [ "abcdefghijklmnopqrstuvwxyz"; "xy" ]) with
      | _ -> Alcotest.fail "the engine encoded the over-long string"
      | exception Invalid_argument _ -> ())

(* the C back end only targets fixed-layout encodings; value-dependent
   wire formats (msgpack, cbor) have no Cgen lowering *)
let fixed_encodings =
  List.filter (fun e -> e.Encoding.var = None) Encoding.all

let suite =
  [ ("c-equivalence", List.map c_equiv_case fixed_encodings @ [ bound_case () ]) ]
