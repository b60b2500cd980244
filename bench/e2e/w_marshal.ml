(* marshal: warm Stub_opt encode -> decode round trips through one
   reused Mbuf writer, over the paper's three payloads in five
   encodings -- the paper's Figure 3 question, with all time in
   stub_opt and mbuf and none in compile or serve. *)

open Meter

let encodings =
  Encoding.[ ("xdr", xdr); ("cdr", cdr); ("mach3", mach3); ("msgpack", msgpack); ("cbor", cbor) ]

let kinds = Inputs.[ Ints; Rects; Dirents ]

(* One (kind, encoding) pair: its compiled stubs and what the traced
   run accumulates for it. *)
type combo = {
  c_kind : Inputs.kind;
  c_enc : Encoding.t;
  c_ms : Paper_fixtures.method_spec;
  c_enc_span : string;
  c_dec_span : string;
  mutable c_encode : Stub_opt.encoder;
  mutable c_decode : Stub_opt.decoder;
  mutable c_bytes : float;  (** wire bytes round-tripped while traced *)
  mutable c_enc_words : float;  (** minor words allocated by encodes *)
  mutable c_dec_words : float;
}

type msg = { combo : combo; args : Value.t array; mutable wire : int }

let make_combo kind (ename, enc) =
  let k = Inputs.kind_name kind in
  let unset _ = invalid_arg "stub not compiled" in
  {
    c_kind = kind;
    c_enc = enc;
    c_ms = Inputs.bench_spec enc kind;
    c_enc_span = Printf.sprintf "stub_opt.encode.%s.%s" k ename;
    c_dec_span = Printf.sprintf "stub_opt.decode.%s.%s" k ename;
    c_encode = (fun _ -> unset);
    c_decode = unset;
    c_bytes = 0.;
    c_enc_words = 0.;
    c_dec_words = 0.;
  }

let compile_combo c =
  let ms = c.c_ms in
  let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
  c.c_encode <- Stub_opt.compile_encoder ~enc:c.c_enc ~mint ~named ms.Paper_fixtures.ms_roots;
  c.c_decode <- Stub_opt.compile_decoder ~enc:c.c_enc ~mint ~named ms.Paper_fixtures.ms_droots

(* One round trip.  The writer reset belongs to the encode and the
   reader's acquire/release to the decode: that is what any caller of
   a stub does around it. *)
let round_trip w m =
  let c = m.combo in
  let traced = !Span.on in
  let w0 = if traced then Gc.minor_words () else 0. in
  Span.span c.c_enc_span (fun () ->
      Mbuf.reset w;
      c.c_encode w m.args);
  let w1 = if traced then Gc.minor_words () else 0. in
  let vs =
    Span.span c.c_dec_span (fun () ->
        let r = Mbuf.acquire_reader w in
        let vs = c.c_decode r in
        Mbuf.release_reader r;
        vs)
  in
  if traced then begin
    let w2 = Gc.minor_words () in
    c.c_enc_words <- c.c_enc_words +. (w1 -. w0);
    c.c_dec_words <- c.c_dec_words +. (w2 -. w1);
    c.c_bytes <- c.c_bytes +. float_of_int m.wire
  end;
  vs

(* Stub_naive is the reference: every distinct message must encode to
   the same bytes under both engines and decode back to an equal
   value.  Returns the number of mismatches. *)
let check_against_naive w msgs =
  Array.fold_left
    (fun bad m ->
      let c = m.combo in
      let ms = c.c_ms in
      let mint = ms.Paper_fixtures.ms_mint and named = ms.Paper_fixtures.ms_named in
      let naive =
        Stub_naive.compile_encoder ~enc:c.c_enc ~mint ~named ms.Paper_fixtures.ms_roots
      in
      let nw = Mbuf.create 256 in
      naive nw m.args;
      let vs = round_trip w m in
      m.wire <- Mbuf.pos w;
      let same = Bytes.equal (Mbuf.contents nw) (Mbuf.contents w) in
      if same && Value.equal vs.(0) m.args.(0) then bad else bad + 1)
    0 msgs

(* Warm-up: every plan past the tier-promotion threshold. *)
let warm_up w msgs =
  let passes = (Opt_config.stage_threshold () / 5) + 2 in
  for _ = 1 to passes do
    Array.iter (fun m -> ignore (round_trip w m)) msgs
  done

(* The traced rows of the stub layer, grouped by payload kind and by
   encoding, per KiB of wire bytes.  Shared with serve and gateway,
   which run the same probe stand-alone on their own messages. *)
let group_keys = [ "ints"; "rects"; "dirents"; "xdr"; "cdr"; "mach3"; "msgpack"; "cbor" ]

let stub_rows ~workload combos =
  let row = Cell.row ~workload in
  let in_group key c = Inputs.kind_name c.c_kind = key || c.c_enc.Encoding.name = key in
  let per_kb num bytes = if bytes = 0. then [] else [ num /. bytes *. 1024. ] in
  let sum f cs = List.fold_left (fun a c -> a +. f c) 0. cs in
  let side name span =
    List.map
      (fun key ->
        let cs = List.filter (in_group key) combos in
        row
          (Printf.sprintf "stub_opt.%s_ns_per_kb.%s" name key)
          "ns/KB"
          (per_kb (sum (fun c -> (Span.acc (span c)).Span.total) cs) (sum (fun c -> c.c_bytes) cs)))
      group_keys
  in
  let bytes = sum (fun c -> c.c_bytes) combos in
  side "encode" (fun c -> c.c_enc_span)
  @ side "decode" (fun c -> c.c_dec_span)
  @ [
      row "stub_opt.encode_minor_words_per_kb" "words" (per_kb (sum (fun c -> c.c_enc_words) combos) bytes);
      row "stub_opt.decode_minor_words_per_kb" "words" (per_kb (sum (fun c -> c.c_dec_words) combos) bytes);
    ]

let combos_of msgs =
  List.rev
    (Array.fold_left
       (fun acc m -> if List.memq m.combo acc then acc else m.combo :: acc)
       [] msgs)

(* Stand-alone stub probe for the workloads whose stub calls happen
   inside the server: the same round trips, on the same values.
   Resets the span accumulators, so run it after the traced rounds'
   rows are taken. *)
let probe o ~workload msgs =
  let combos = combos_of msgs in
  List.iter compile_combo combos;
  let w = Mbuf.acquire () in
  Array.iter (fun m -> ignore (round_trip w m); m.wire <- Mbuf.pos w) msgs;
  Span.reset ();
  Span.on := true;
  let budget = now_ns () +. probe_ns o in
  while now_ns () < budget do
    Array.iter (fun m -> ignore (round_trip w m)) msgs
  done;
  Span.on := false;
  Mbuf.release w;
  stub_rows ~workload combos

let messages st =
  let combos = List.concat_map (fun k -> List.map (make_combo k) encodings) kinds in
  let msgs =
    List.concat_map
      (fun c ->
        List.map
          (fun bytes -> { combo = c; args = [| Inputs.payload st c.c_kind ~bytes |]; wire = 0 })
          (Array.to_list (Inputs.log_sizes st 5 64 65536)))
      combos
  in
  (combos, Inputs.shuffle st (Array.of_list msgs))

(* One value in [sample_check] is compared with its decoded copy. *)
let sample_check = 256
let sampled = ref 0
let checked = ref 0

(* Whole passes over the messages, so every message weighs the same in
   a slice. *)
let drive w msgs sl ~deadline =
  Slicer.start sl;
  while now_ns () < deadline do
    Array.iter
      (fun m ->
        Span.sampled sampled (fun () ->
            Span.span "client" (fun () ->
                let t0 = now_ns () in
                let vs = round_trip w m in
                let t1 = now_ns () in
                incr checked;
                if !checked mod sample_check <> 0 then Slicer.ok sl (t1 -. t0)
                else begin
                  if Value.equal vs.(0) m.args.(0) then Slicer.ok sl (t1 -. t0)
                  else Slicer.fail sl;
                  Slicer.exclude sl (now_ns () -. t1)
                end)))
      msgs;
    Slicer.boundary sl
  done;
  Slicer.close sl

let run (o : opts) =
  let workload = "marshal" in
  let st = Inputs.rng ~seed:o.seed workload in
  let combos, msgs = messages st in
  let pool0 = Mbuf.pool_stats () in
  let w = Mbuf.acquire () in
  let (), setup =
    timed_setup o (fun () ->
        List.iter compile_combo combos;
        warm_up w msgs)
  in
  let oracle_failed = check_against_naive w msgs in
  let rows, slicers =
    if not o.traced then begin
      let sl = measure o (drive w msgs) in
      (e2e_rows ~workload ~setup sl, [ sl ])
    end
    else begin
      let t = traced_run o (drive w msgs) in
      Meter.write_trace o;
      let kb = List.fold_left (fun a c -> a +. c.c_bytes) 0. combos /. 1024. in
      let traced =
        traced_common_rows ~workload t @ stub_rows ~workload combos @ counter_rows ~workload ~kb t
      in
      let plans = List.map (fun c -> { pi_enc = c.c_enc; pi_ms = c.c_ms }) combos in
      (traced @ plan_rows o ~workload plans, [ t.untraced; t.traced ])
    end
  in
  Mbuf.release w;
  outcome ~workload ~pool0 ~slicers ~oracle_cases:(Array.length msgs) ~oracle_failed
    ~clean:true rows
