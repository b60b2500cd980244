(* Framing under test: the Mbuf origin, absolute store and sub-readers
   it stands on; streams cut at arbitrary byte boundaries (the carry
   path) and hostile streams through Rpc_serve and Rpc_gateway; a reply
   whose encode fails next to frames already queued; and the
   payload-relative alignment of CDR bodies behind a frame header. *)

module Q = QCheck

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let test name f = Alcotest.test_case name `Quick f

(* -- Mbuf primitives ------------------------------------------------- *)

let test_origin_align () =
  let w = Mbuf.create 64 in
  Mbuf.put_i32 w ~be:true 7;
  Mbuf.put_i32 w ~be:true 7;
  Mbuf.put_i32 w ~be:true 7;
  Mbuf.set_origin w;
  Mbuf.put_u8 w 1;
  Mbuf.align w 8;
  checki "padded to 8 past the origin, not the message start" 20 (Mbuf.pos w);
  Mbuf.reset w;
  Mbuf.put_u8 w 1;
  Mbuf.align w 8;
  checki "reset moves the origin back to 0" 8 (Mbuf.pos w)

let test_patch_behind_borrow () =
  let w = Mbuf.create 16 in
  Mbuf.put_i32 w ~be:true 0;
  let big = Bytes.make 600 'x' in
  Mbuf.put_borrow_bytes w big 0 600;
  Mbuf.put_i32 w ~be:true 9;
  checkb "the message is segmented" true (Mbuf.segment_count w > 1);
  Mbuf.patch_i32_be w 0 0x01020304;
  Mbuf.patch_i32_be w 604 0x0a0b0c0d;
  let b = Mbuf.contents w in
  checki "patched in the sealed head segment" 0x01020304
    (Int32.to_int (Bytes.get_int32_be b 0));
  checki "patched in the active region" 0x0a0b0c0d
    (Int32.to_int (Bytes.get_int32_be b 604));
  checkb "borrowed bytes are never patched" true
    (match Mbuf.patch_i32_be w 100 0 with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "the borrowed payload is untouched" true
    (Bytes.equal big (Bytes.make 600 'x'))

let test_reader_positions () =
  let b = Bytes.make 32 '\000' in
  Bytes.set_int32_be b 12 42l;
  let r = Mbuf.reader_of_bytes ~off:4 ~len:20 b in
  checki "positions count from off" 0 (Mbuf.rpos r);
  Mbuf.skip r 1;
  Mbuf.ralign r 8;
  checki "alignment measured from off" 8 (Mbuf.rpos r);
  checki "and reads land there" 42 (Mbuf.read_i32 r ~be:true);
  (* a sub-reader over a segmented writer *)
  let w = Mbuf.create 16 in
  Mbuf.put_i32 w ~be:true 1;
  Mbuf.put_borrow_bytes w (Bytes.of_string "abcdefgh") 0 8;
  Mbuf.put_i32 w ~be:true 2;
  let r = Mbuf.reader w in
  Mbuf.skip r 2;
  let sub = Mbuf.split r 12 in
  checki "parent skipped the span" 14 (Mbuf.rpos r);
  checki "sub-reader starts at 0" 0 (Mbuf.rpos sub);
  checki "sub-reader holds the span" 12 (Mbuf.remaining sub);
  Alcotest.(check string)
    "gathers across segments" "\000\001abcdefgh\000\000"
    (Mbuf.read_string sub 12);
  checkb "and ends there" true
    (match Mbuf.read_u8 sub with
    | _ -> false
    | exception Mbuf.Short_buffer -> true)

(* -- fixtures ----------------------------------------------------------- *)

let with_pool_check = Test_serve.with_pool_check

let t_idl =
  "interface T { void f(in string s, in double d); void g(in long x); };"

let t_presc =
  lazy (Presgen_corba.generate (Corba_parser.parse ~file:"t.idl" t_idl) [ "T" ])

let t_spec op = Paper_fixtures.request_spec (Lazy.force t_presc) ~op

let payload_of frame = Bytes.sub frame 16 (Bytes.length frame - 16)

let f_vals s d = [| Value.Vstring s; Value.Vfloat d |]

(* A gateway write-through at the seed read each request at whatever
   offset it landed in the proxy's growable buffer, so the CDR double's
   alignment drifted with the traffic before it. *)
let test_gateway_cdr_offsets () =
  with_pool_check (fun () ->
      let sim = Sim_core.create () in
      let gw = Rpc_gateway.create ~sim ~src:Encoding.cdr ~dst:Encoding.xdr () in
      let f = t_spec "f" and g = t_spec "g" in
      Rpc_gateway.register gw f ~iface:1 ~op:1;
      Rpc_gateway.register gw g ~iface:1 ~op:2;
      let got = ref [] in
      let c =
        Rpc_gateway.connect gw ~deliver:(fun d ->
            got := !got @ Rpc_serve.parse_replies d)
      in
      let frames =
        [
          Rpc_gateway.client_frame gw g ~iface:1 ~op:2 ~seq:0 [| Value.Vint 7 |];
          Rpc_gateway.client_frame gw f ~iface:1 ~op:1 ~seq:1 (f_vals "hi" 2.5);
          Rpc_gateway.client_frame gw f ~iface:1 ~op:1 ~seq:2
            (f_vals "hello" (-0.125));
        ]
      in
      checki "the g request is a 28-byte frame" 28
        (Bytes.length (List.hd frames));
      List.iter (Rpc_gateway.feed c) frames;
      Sim_core.run sim;
      let replies = List.sort (fun (_, a, _) (_, b, _) -> compare a b) !got in
      checki "three replies" 3 (List.length replies);
      List.iteri
        (fun i (status, seq, pl) ->
          checki "in order" i seq;
          checkb (Printf.sprintf "seq %d is Ok" seq) true (status = Rpc_serve.Sok);
          checkb
            (Printf.sprintf "seq %d echoes its payload" seq)
            true
            (Bytes.equal pl (payload_of (List.nth frames i))))
        replies)

(* A reply encoded behind its 12-byte header pads from the payload
   start, exactly as the request's encoder did. *)
let test_serve_cdr_echo () =
  with_pool_check (fun () ->
      let sim = Sim_core.create () in
      let t =
        Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim)
          ~egress:(Link.ethernet_100 ~sim) ()
      in
      let spec = Rpc_serve.echo_op ~iface:1 ~op:1 ~enc:Encoding.cdr (t_spec "f") in
      Rpc_serve.register t spec;
      let got = ref [] in
      let c =
        Rpc_serve.connect t ~deliver:(fun d ->
            got := !got @ Rpc_serve.parse_replies d)
      in
      let frames =
        List.mapi
          (fun seq s -> Rpc_serve.request_frame spec ~seq (f_vals s 1.5))
          [ ""; "a"; "abc"; "hello"; "twelve chars" ]
      in
      List.iter (Rpc_serve.feed c) frames;
      Sim_core.run sim;
      checki "every request answered" (List.length frames) (List.length !got);
      List.iter
        (fun (status, seq, pl) ->
          checkb "Ok" true (status = Rpc_serve.Sok);
          checkb
            (Printf.sprintf "seq %d: reply payload = request payload" seq)
            true
            (Bytes.equal pl (payload_of (List.nth frames seq))))
        !got)

(* -- streams cut anywhere -------------------------------------------- *)

let kinds = [| `Ints; `Rects; `Dirents |]

(* One random request: payload kind and approximate size. *)
let req_gen = Q.Gen.(pair (int_bound 2) (int_range 8 700))

(* A stream of frames and the cut points that split it into
   deliveries.  Besides the random cuts, frame 0's length word is split
   and frame 1 spans three deliveries; few random cuts leave many
   frames in one delivery. *)
type stream = { reqs : (int * int) list; cuts : int list }

let stream_gen =
  let open Q.Gen in
  let* reqs = list_size (int_range 2 12) req_gen in
  let* ncuts = frequency [ (2, return 0); (3, int_range 1 4); (3, int_range 5 40) ] in
  let* cuts = list_repeat ncuts (float_bound_exclusive 1.) in
  return { reqs; cuts = List.map (fun f -> int_of_float (f *. 1e6)) cuts }

let stream_print s =
  Printf.sprintf "reqs=[%s] cuts=%d"
    (String.concat "; "
       (List.map (fun (k, b) -> Printf.sprintf "%d:%dB" k b) s.reqs))
    (List.length s.cuts)

let arbitrary_stream = Q.make ~print:stream_print stream_gen

let xdr_spec k = Test_serve.spec_for Encoding.xdr kinds.(k)

(* Cut [frames] into deliveries at the stream's cut points (scaled to
   the stream length) plus the forced ones. *)
let deliveries frames cuts =
  let all = Bytes.concat Bytes.empty frames in
  let total = Bytes.length all in
  let f0 = Bytes.length (List.hd frames) in
  let f1 = Bytes.length (List.nth frames 1) in
  let forced = [ 2; f0 + 5; f0 + f1 - 3 ] in
  let scaled = List.map (fun c -> 1 + (c mod (total - 1))) cuts in
  let points = List.sort_uniq compare (forced @ scaled) in
  let rec go prev = function
    | [] -> [ Bytes.sub all prev (total - prev) ]
    | p :: rest -> Bytes.sub all prev (p - prev) :: go p rest
  in
  go 0 points

let collect_replies () =
  let replies = Hashtbl.create 16 in
  let deliver d =
    List.iter
      (fun (st, seq, pl) ->
        if Hashtbl.mem replies seq then
          Q.Test.fail_reportf "duplicate reply for seq %d" seq;
        Hashtbl.replace replies seq (Rpc_serve.status_code st, pl))
      (Rpc_serve.parse_replies d)
  in
  (replies, deliver)

let same_replies what whole cut n =
  if Hashtbl.length whole <> n then
    Q.Test.fail_reportf "%s: %d of %d whole-frame requests answered" what
      (Hashtbl.length whole) n;
  Hashtbl.iter
    (fun seq (st, pl) ->
      match Hashtbl.find_opt cut seq with
      | Some (st', pl') when st = st' && Bytes.equal pl pl' -> ()
      | Some _ -> Q.Test.fail_reportf "%s: seq %d differs when cut" what seq
      | None -> Q.Test.fail_reportf "%s: seq %d unanswered when cut" what seq)
    whole;
  Hashtbl.length cut = n

let serve_run ~feed_all =
  let sim = Sim_core.create () in
  let config = { Rpc_serve.default_config with Rpc_serve.max_in_flight = 64 } in
  let t =
    Rpc_serve.create ~sim ~config ~ingress:(Link.ethernet_100 ~sim)
      ~egress:(Link.ethernet_100 ~sim) ()
  in
  Test_serve.register_all t Encoding.xdr;
  let replies, deliver = collect_replies () in
  let c = Rpc_serve.connect t ~deliver in
  feed_all (Rpc_serve.feed c);
  Sim_core.run sim;
  replies

(* The bench operations under the gateway's source encoding, derived
   once per encoding (deriving a method spec is expensive). *)
let gw_specs =
  let memo = Hashtbl.create 4 in
  fun (src : Encoding.t) ->
    match Hashtbl.find_opt memo src.Encoding.name with
    | Some ms -> ms
    | None ->
        let style = if src == Encoding.cdr then `Corba else `Rpcgen in
        let pc = Paper_fixtures.bench_presc style in
        let ms =
          Array.map
            (fun k ->
              Paper_fixtures.request_spec pc ~op:(Paper_fixtures.op_of_payload k))
            kinds
        in
        Hashtbl.add memo src.Encoding.name ms;
        ms

let gateway_with ~sim ~src ~deliver =
  let gw = Rpc_gateway.create ~sim ~src ~dst:Encoding.xdr () in
  let ms = gw_specs src in
  Array.iteri (fun i m -> Rpc_gateway.register gw m ~iface:1 ~op:(i + 1)) ms;
  let mk k ~seq v = Rpc_gateway.client_frame gw ms.(k) ~iface:1 ~op:(k + 1) ~seq v in
  (gw, Rpc_gateway.connect gw ~deliver, mk)

let gateway_run ~src ~frames ~feed_all =
  let sim = Sim_core.create () in
  let replies, deliver = collect_replies () in
  let _, c, mk = gateway_with ~sim ~src ~deliver in
  feed_all (Rpc_gateway.feed c) (frames mk);
  Sim_core.run sim;
  replies

let values (k, bytes) = [| Paper_fixtures.payload kinds.(k) ~bytes |]

let split_prop s =
  with_pool_check @@ fun () ->
  let n = List.length s.reqs in
  let frames =
    List.mapi (fun seq r -> Rpc_serve.request_frame (xdr_spec (fst r)) ~seq (values r)) s.reqs
  in
  let whole = serve_run ~feed_all:(fun feed -> List.iter feed frames) in
  let cut =
    serve_run ~feed_all:(fun feed -> List.iter feed (deliveries frames s.cuts))
  in
  ignore (same_replies "serve" whole cut n);
  List.iteri
    (fun seq f ->
      match Hashtbl.find_opt whole seq with
      | Some (0, pl) when Bytes.equal pl (payload_of f) -> ()
      | _ -> Q.Test.fail_reportf "serve: seq %d is not an Ok echo" seq)
    frames;
  List.for_all
    (fun src ->
      let frames mk = List.mapi (fun seq r -> mk (fst r) ~seq (values r)) s.reqs in
      let whole = gateway_run ~src ~frames ~feed_all:List.iter in
      let cut =
        gateway_run ~src ~frames ~feed_all:(fun feed fs ->
            List.iter feed (deliveries fs s.cuts))
      in
      same_replies ("gateway " ^ src.Encoding.name) whole cut n)
    [ Encoding.xdr; Encoding.cdr ]

(* -- hostile streams -------------------------------------------------- *)

(* Pieces of a hostile stream: good frames, frames whose body is cut
   short (the length is re-stamped, so they parse and fail to decode),
   unknown operations, garbage words, and one bad length that kills the
   connection when the parser gets to it. *)
type piece =
  | Good of int * int
  | Short of int * int
  | Unknown
  | Garbage of string
  | Oversized
  | Undersized of int

type hostile = { pieces : piece list; cuts : int list; close_at_us : int option }

let piece_gen =
  let open Q.Gen in
  frequency
    [
      (8, map (fun r -> Good (fst r, snd r)) req_gen);
      (3, map (fun r -> Short (fst r, snd r)) req_gen);
      (1, return Unknown);
      (1, map (fun s -> Garbage s) (string_size (int_range 1 24)));
      (1, return Oversized);
      (1, map (fun n -> Undersized n) (int_bound 11));
    ]

let hostile_gen =
  let open Q.Gen in
  let* pieces = list_size (int_range 1 10) piece_gen in
  let* ncuts = int_range 0 12 in
  let* cuts = list_repeat ncuts (int_bound 1_000_000) in
  let* close_at_us = opt ~ratio:0.3 (int_range 0 1500) in
  return { pieces; cuts; close_at_us }

let hostile_print h =
  Printf.sprintf "[%s] cuts=%d close=%s"
    (String.concat "; "
       (List.map
          (function
            | Good (k, b) -> Printf.sprintf "good %d:%d" k b
            | Short (k, b) -> Printf.sprintf "short %d:%d" k b
            | Unknown -> "unknown"
            | Garbage s -> Printf.sprintf "garbage %S" s
            | Oversized -> "oversized"
            | Undersized n -> Printf.sprintf "undersized %d" n)
          h.pieces))
    (List.length h.cuts)
    (match h.close_at_us with Some u -> string_of_int u ^ "us" | None -> "no")

let arbitrary_hostile = Q.make ~print:hostile_print hostile_gen

let word n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  b

let piece_bytes mk seq = function
  | Good (k, b) -> mk k ~seq (values (k, b))
  | Short (k, b) ->
      let f = mk k ~seq (values (k, b)) in
      let cut = max 16 (Bytes.length f - 1 - (b / 2)) in
      let s = Bytes.sub f 0 cut in
      Bytes.set_int32_be s 0 (Int32.of_int (cut - 4));
      s
  | Unknown ->
      let f = mk 0 ~seq (values (0, 8)) in
      Bytes.set_int32_be f 8 77l;
      f
  | Garbage s -> Bytes.of_string s
  | Oversized -> word 0x7fffffff
  | Undersized n -> word n

(* The reference parse of a whole stream: how many frames a parser
   hands out before the stream ends, stalls mid-frame or hits a bad
   length (which kills the connection). *)
let model_frames ~max_frame all =
  let total = Bytes.length all in
  let rec go off n =
    if off + 4 > total then (n, false)
    else
      let len = Int32.to_int (Bytes.get_int32_be all off) land 0xffffffff in
      if len < 12 || len > max_frame then (n, true)
      else if off + 4 + len > total then (n, false)
      else go (off + 4 + len) (n + 1)
  in
  go 0 0

let hostile_run h ~target =
  let sim = Sim_core.create () in
  let replies = ref 0 in
  let deliver d = replies := !replies + List.length (Rpc_serve.parse_replies d) in
  let feed, close, mk, killed =
    match target with
    | `Serve ->
        let t =
          Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim)
            ~egress:(Link.ethernet_100 ~sim) ()
        in
        Test_serve.register_all t Encoding.xdr;
        let c = Rpc_serve.connect t ~deliver in
        ( Rpc_serve.feed c,
          (fun () -> Rpc_serve.close_conn c),
          (fun k ~seq v -> Rpc_serve.request_frame (xdr_spec k) ~seq v),
          fun () -> (Rpc_serve.stats t).Rpc_serve.st_killed_conns )
    | `Gateway src ->
        let gw, c, mk = gateway_with ~sim ~src ~deliver in
        ( Rpc_gateway.feed c,
          (fun () -> Rpc_gateway.close_conn c),
          mk,
          fun () -> (Rpc_gateway.stats gw).Rpc_gateway.gs_killed_conns )
  in
  let frames = List.mapi (piece_bytes mk) h.pieces in
  let all = Bytes.concat Bytes.empty frames in
  let expected, bad = model_frames ~max_frame:Rpc_serve.default_config.max_frame all in
  let pieces =
    if Bytes.length all < 2 then [ all ]
    else
      let points =
        List.sort_uniq compare
          (List.map (fun c -> 1 + (c mod (Bytes.length all - 1))) h.cuts)
      in
      let rec go prev = function
        | [] -> [ Bytes.sub all prev (Bytes.length all - prev) ]
        | p :: rest -> Bytes.sub all prev (p - prev) :: go p rest
      in
      go 0 points
  in
  (* deliveries 20us apart, so some bodies are still on the CPU queue
     when a bad length or the close lands *)
  List.iteri
    (fun i p -> Sim_core.schedule sim ~delay:(float_of_int i *. 20e-6) (fun () -> feed p))
    pieces;
  Option.iter
    (fun us -> Sim_core.schedule sim ~delay:(float_of_int us *. 1e-6) close)
    h.close_at_us;
  (match Sim_core.run sim with
  | () -> ()
  | exception e ->
      Q.Test.fail_reportf "exception escaped Sim_core.run: %s"
        (Printexc.to_string e));
  (* without a close, a bad length kills and anything else is answered *)
  if h.close_at_us = None then begin
    if killed () <> if bad then 1 else 0 then
      Q.Test.fail_reportf "%d connections killed, the model says %b" (killed ())
        bad;
    if (not bad) && !replies <> expected then
      Q.Test.fail_reportf "%d frames, %d replies on a live connection" expected
        !replies
  end;
  if !replies > expected then
    Q.Test.fail_reportf "%d replies for %d frames" !replies expected

let hostile_prop h =
  with_pool_check (fun () ->
      hostile_run h ~target:`Serve;
      hostile_run h ~target:(`Gateway Encoding.xdr);
      hostile_run h ~target:(`Gateway Encoding.cdr));
  true

(* -- a reply that fails to encode -------------------------------------- *)

(* Requests for op 2 decode fine, but the handler hands the encoder a
   value of the wrong shape.  Replies to seq 1 and 3, queued on the same
   connection around the failure, must leave byte-identical to their
   standalone frames. *)
let test_failed_encode_keeps_queue () =
  with_pool_check (fun () ->
      let sim = Sim_core.create () in
      let config =
        { Rpc_serve.default_config with Rpc_serve.flush_delay_s = 5e-3 }
      in
      let t =
        Rpc_serve.create ~sim ~config ~ingress:(Link.ethernet_100 ~sim)
          ~egress:(Link.ethernet_100 ~sim) ()
      in
      let ints = xdr_spec 0 in
      Rpc_serve.register t ints;
      Rpc_serve.register t
        { ints with Rpc_serve.os_op = 2; os_handler = (fun _ -> [| Value.Vstring "x" |]) };
      let got = ref [] in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := d :: !got) in
      let frame op seq =
        let f = Rpc_serve.request_frame ints ~seq (values (0, 40 * seq)) in
        Bytes.set_int32_be f 8 (Int32.of_int op);
        f
      in
      let f1 = frame 1 1 and f2 = frame 2 2 and f3 = frame 1 3 in
      List.iter (Rpc_serve.feed c) [ f1; f2; f3 ];
      let raised = ref 0 in
      let rec drain () =
        match Sim_core.run sim with
        | () -> ()
        | exception _ ->
            incr raised;
            drain ()
      in
      drain ();
      checki "the failing encode raised once" 1 !raised;
      let reply seq f =
        let pl = payload_of f in
        Bytes.concat Bytes.empty
          [ word (8 + Bytes.length pl); word 0; word seq; pl ]
      in
      match !got with
      | [ d ] ->
          checkb "queued frames come out byte-identical" true
            (Bytes.equal d (Bytes.cat (reply 1 f1) (reply 3 f3)))
      | l -> Alcotest.failf "expected one flush, got %d" (List.length l))

(* A one-shot parse never allocates past what it was handed: a partial
   frame claiming 2 GiB is torn, not carried. *)
let test_one_shot_bounded () =
  let huge = word 0x7fffffff in
  let before = Gc.allocated_bytes () in
  checkb "torn" true
    (match Rpc_serve.parse_replies huge with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "allocation bounded by the input" true
    (Gc.allocated_bytes () -. before < 65536.)

let suite =
  [
    ( "frame",
      [
        test "writer origin moves align" test_origin_align;
        test "absolute store behind a borrow" test_patch_behind_borrow;
        test "reader positions count from the start" test_reader_positions;
        test "gateway cdr->xdr reads each request at its own offset"
          test_gateway_cdr_offsets;
        test "serve cdr echo of (string, double)" test_serve_cdr_echo;
        test "failed reply encode leaves queued frames intact"
          test_failed_encode_keeps_queue;
        test "one-shot parses allocate within their input" test_one_shot_bounded;
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~name:"streams cut anywhere = whole-frame delivery"
             ~count:300 arbitrary_stream split_prop);
        QCheck_alcotest.to_alcotest
          (Q.Test.make ~name:"hostile streams: answered or killed, no leaks"
             ~count:500 arbitrary_hostile hostile_prop);
      ] );
  ]
