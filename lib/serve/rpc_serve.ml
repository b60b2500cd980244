(* The server loop.  See the .mli for the wire format and policies; the
   implementation notes that matter:

   - The server CPU is serial, modelled exactly like Link's wire
     ([cpu_busy_until]): an accepted request starts service when the CPU
     frees up, so a burst builds a queue and the in-flight count is that
     queue plus the request being served.  Backpressure falls out: once
     the queue reaches [max_in_flight], arrivals are shed with a header
     parse only.

   - Framing copies nothing (Frame): an accepted body is a reader over
     the delivery it arrived in until its service completes.  A reply
     is encoded behind its header in its own pooled writer, queued only
     once the encode succeeded, so a failure never touches queued
     frames.

   - Flushes coalesce per connection with a cancellable timer: the
     first reply arms it, replies landing inside the window ride along,
     connection death cancels it.  All reply frames queued at fire time
     leave as one wire message, flattened once. *)

type status = Sok | Sshed | Sbad_request | Sunknown_op

let status_code = function
  | Sok -> 0
  | Sshed -> 1
  | Sbad_request -> 2
  | Sunknown_op -> 3

let status_of_code = function
  | 0 -> Some Sok
  | 1 -> Some Sshed
  | 2 -> Some Sbad_request
  | 3 -> Some Sunknown_op
  | _ -> None

type config = {
  max_in_flight : int;
  max_in_flight_per_conn : int option;
  max_frame : int;
  service_fixed_s : float;
  service_per_byte_s : float;
  flush_delay_s : float;
}

let default_config =
  {
    max_in_flight = 32;
    max_in_flight_per_conn = None;
    max_frame = 1 lsl 20;
    service_fixed_s = 150e-6;
    service_per_byte_s = 1e-9;
    flush_delay_s = 50e-6;
  }

type op_spec = {
  os_iface : int;
  os_op : int;
  os_name : string;
  os_enc : Encoding.t;
  os_mint : Mint.t;
  os_named : (string * (Mint.idx * Pres.t)) list;
  os_req_roots : Plan_compile.root list;
  os_req_droots : Stub_opt.droot list;
  os_reply_roots : Plan_compile.root list;
  os_handler : Value.t array -> Value.t array;
}

let echo_op ~iface ~op ~enc (ms : Paper_fixtures.method_spec) =
  {
    os_iface = iface;
    os_op = op;
    os_name = ms.Paper_fixtures.ms_name;
    os_enc = enc;
    os_mint = ms.Paper_fixtures.ms_mint;
    os_named = ms.Paper_fixtures.ms_named;
    os_req_roots = ms.Paper_fixtures.ms_roots;
    os_req_droots = ms.Paper_fixtures.ms_droots;
    os_reply_roots = ms.Paper_fixtures.ms_roots;
    os_handler = (fun vs -> vs);
  }

(* Process-wide instruments (the registry owns names for the process
   lifetime, so these register once at module load).  Per-connection
   latency histograms are memoized by connection id for the same
   reason: servers come and go within a process — every bench sweep
   point builds one — and re-registering "serve.conn.N.latency_ns"
   would raise Duplicate_metric. *)
let c_frames_in = Obs.counter "serve.frames_in"
let c_accepted = Obs.counter "serve.accepted"
let c_shed = Obs.counter "serve.shed"
let c_errors = Obs.counter "serve.errors"
let c_flushes = Obs.counter "serve.flushes"
let c_retransmits = Obs.counter "serve.retransmits"
let g_in_flight = Obs.gauge "serve.in_flight"
let h_latency = Obs.hist "serve.latency_ns"

let conn_hists : (int, Obs.hist) Hashtbl.t = Hashtbl.create 16

let conn_hist id =
  match Hashtbl.find_opt conn_hists id with
  | Some h -> h
  | None ->
      let h = Obs.hist (Printf.sprintf "serve.conn.%d.latency_ns" id) in
      Hashtbl.add conn_hists id h;
      h

type op_entry = {
  oe_spec : op_spec;
  oe_decode : Stub_opt.decoder;
  oe_encode : Stub_opt.encoder;
}

type t = {
  sim : Sim_core.t;
  cfg : config;
  ingress : Link.t;
  egress : Link.t;
  ops : (int * int, op_entry) Hashtbl.t;
  mutable next_conn : int;
  mutable in_flight : int;
  mutable cpu_busy_until : float;
  mutable diag_log : Diag.t list;  (* newest first *)
  mutable s_frames_in : int;
  mutable s_bytes_in : int;
  mutable s_bytes_out : int;
  mutable s_accepted : int;
  mutable s_shed : int;
  mutable s_shed_per_conn : int;
  mutable s_bad_request : int;
  mutable s_unknown_op : int;
  mutable s_ok_replies : int;
  mutable s_flushes : int;
  mutable s_coalesced : int;
  mutable s_dropped_replies : int;
  mutable s_killed_conns : int;
  mutable s_in_flight_hw : int;
  rec_domain : int;  (* request-recorder correlation domain *)
}

type conn = {
  c_id : int;
  c_server : t;
  c_deliver : bytes -> unit;
  mutable c_closed : bool;
  mutable c_in_flight : int;  (* this connection's share of the budget *)
  c_parser : Frame.parser;
  mutable c_out : Mbuf.t list;  (* queued reply frames, newest first *)
  mutable c_flush : Sim_core.handle option;
  mutable c_recs : Obs_request.record list;
      (* newest first: trace records of the replies queued in c_out *)
}

(* A delivered writer and the accepted bodies still reading it. *)
type hold = { h_msg : Mbuf.t; mutable h_refs : int }

let drop = function
  | Some h ->
      h.h_refs <- h.h_refs - 1;
      if h.h_refs = 0 then Mbuf.release h.h_msg
  | None -> ()

let create ~sim ?(config = default_config) ~ingress ~egress () =
  {
    sim;
    cfg = config;
    ingress;
    egress;
    ops = Hashtbl.create 8;
    next_conn = 0;
    in_flight = 0;
    cpu_busy_until = 0.;
    diag_log = [];
    s_frames_in = 0;
    s_bytes_in = 0;
    s_bytes_out = 0;
    s_accepted = 0;
    s_shed = 0;
    s_shed_per_conn = 0;
    s_bad_request = 0;
    s_unknown_op = 0;
    s_ok_replies = 0;
    s_flushes = 0;
    s_coalesced = 0;
    s_dropped_replies = 0;
    s_killed_conns = 0;
    s_in_flight_hw = 0;
    rec_domain = Obs_request.new_domain ();
  }

let trace_domain t = t.rec_domain

let register t spec =
  let decode =
    Stub_opt.compile_decoder ~enc:spec.os_enc ~mint:spec.os_mint
      ~named:spec.os_named spec.os_req_droots
  in
  let encode =
    Stub_opt.compile_encoder ~enc:spec.os_enc ~mint:spec.os_mint
      ~named:spec.os_named spec.os_reply_roots
  in
  Hashtbl.replace t.ops
    (spec.os_iface, spec.os_op)
    { oe_spec = spec; oe_decode = decode; oe_encode = encode }

let connect t ~deliver =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  {
    c_id = id;
    c_server = t;
    c_deliver = deliver;
    c_closed = false;
    c_in_flight = 0;
    c_parser =
      Frame.parser ~head:Frame.request_head ~max_body:t.cfg.max_frame;
    c_out = [];
    c_flush = None;
    c_recs = [];
  }

let conn_id c = c.c_id
let in_flight t = t.in_flight
let diags t = List.rev_map Diag.to_string t.diag_log

let record_diag t fmt =
  Printf.ksprintf
    (fun msg ->
      t.diag_log <-
        { Diag.severity = Diag.Error_sev; loc = Loc.dummy;
          message = "serve: " ^ msg }
        :: t.diag_log;
      Obs.incr c_errors 1)
    fmt

(* -- framing ------------------------------------------------------- *)

let body_min = Frame.request_head

let set_gauge_in_flight t =
  Obs.set_gauge g_in_flight (float_of_int t.in_flight);
  if t.in_flight > t.s_in_flight_hw then t.s_in_flight_hw <- t.in_flight

(* Tear a connection down: discard buffered input, cancel the pending
   flush, release the queued reply frames (counting them as dropped).
   Shared by voluntary close and protocol-error kill.  The flight
   recorder gets every in-flight record of the connection before the
   state is discarded — queued replies, requests still on the CPU
   queue, replies riding the egress wire — with the terminal outcome,
   so a dead connection's partial timelines land in the ring instead of
   vanishing with it. *)
let teardown c ~outcome =
  let t = c.c_server in
  c.c_closed <- true;
  Frame.discard c.c_parser;
  (match c.c_flush with
  | Some h ->
      Sim_core.cancel h;
      c.c_flush <- None
  | None -> ());
  c.c_recs <- [];
  t.s_dropped_replies <- t.s_dropped_replies + List.length c.c_out;
  List.iter Mbuf.release c.c_out;
  c.c_out <- [];
  if Obs_request.enabled () then
    Obs_request.abort_conn ~domain:t.rec_domain ~conn:c.c_id
      ~ensure_marker:(outcome = Obs_request.Rkilled)
      ~outcome ~now_s:(Sim_core.now t.sim) ()

let close_conn c =
  if not c.c_closed then begin
    let t = c.c_server in
    let pending = Frame.pending c.c_parser in
    if pending > 0 then
      record_diag t
        "connection %d closed mid-frame (%d buffered bytes discarded)" c.c_id
        pending;
    teardown c ~outcome:Obs_request.Rdropped
  end

let kill c fmt =
  Printf.ksprintf
    (fun msg ->
      let t = c.c_server in
      record_diag t "connection %d: %s" c.c_id msg;
      t.s_killed_conns <- t.s_killed_conns + 1;
      teardown c ~outcome:Obs_request.Rkilled)
    fmt

(* -- reply path ---------------------------------------------------- *)

let flush c =
  let t = c.c_server in
  c.c_flush <- None;
  match List.rev c.c_out with
  | [] -> ()
  | f :: rest as frames ->
      c.c_out <- [];
      let recs = List.rev c.c_recs in
      c.c_recs <- [];
      (* chain the later frames behind the first by reference, then
         flatten the whole flush once *)
      List.iter (fun w -> Mbuf.iter_segments w (Mbuf.put_borrow_bytes f)) rest;
      let data = Mbuf.contents f in
      List.iter Mbuf.release frames;
      t.s_flushes <- t.s_flushes + 1;
      Obs.incr c_flushes 1;
      t.s_bytes_out <- t.s_bytes_out + Bytes.length data;
      if recs = [] then
        Link.transmit t.egress ~bytes:(Bytes.length data) (fun () ->
            if not c.c_closed then c.c_deliver data)
      else begin
        (* the records' cursors sit at enqueue time; the flush firing
           closes their flush-wait phase, delivery closes egress *)
        let now = Sim_core.now t.sim in
        List.iter
          (fun r -> Obs_request.mark r Obs_request.Flush_wait ~now_s:now)
          recs;
        let tm =
          Link.transmit_timed t.egress ~bytes:(Bytes.length data) (fun () ->
              let now = Sim_core.now t.sim in
              List.iter
                (fun r ->
                  Obs_request.mark r Obs_request.Egress_wire ~now_s:now;
                  if c.c_closed then
                    Obs_request.set_outcome r Obs_request.Rdropped;
                  Obs_request.finish r)
                recs;
              if not c.c_closed then c.c_deliver data)
        in
        let qns = Obs_request.ns_of_s tm.Link.tx_queue_s in
        List.iter (fun r -> Obs_request.add_wire_queue_ns r qns) recs
      end

(* Queue one finished reply frame [w] (the connection takes it over)
   and make sure a flush is armed.  [rec_] is the request's trace
   record: it rides the connection's reply queue until the coalesced
   flush carries it out (fault statuses stamp their outcome here, which
   is what forces the record into the flight ring at finish). *)
let enqueue_reply ?rec_ c status w =
  let t = c.c_server in
  if c.c_closed then begin
    Mbuf.release w;
    t.s_dropped_replies <- t.s_dropped_replies + 1;
    match rec_ with
    | Some r ->
        Obs_request.set_outcome r Obs_request.Rdropped;
        Obs_request.finish r
    | None -> ()
  end
  else begin
    if c.c_out <> [] then t.s_coalesced <- t.s_coalesced + 1;
    c.c_out <- w :: c.c_out;
    (match rec_ with
    | Some r ->
        (match status with
        | Sok -> ()
        | s ->
            Obs_request.set_outcome r
              (Obs_request.outcome_of_fault_status (status_code s)));
        c.c_recs <- r :: c.c_recs
    | None -> ());
    match c.c_flush with
    | Some _ -> ()
    | None ->
        c.c_flush <-
          Some
            (Sim_core.schedule_cancellable t.sim ~delay:t.cfg.flush_delay_s
               (fun () -> flush c))
  end

(* A reply that carries no payload. *)
let fault_reply ?rec_ c status seq =
  let w = Mbuf.acquire () in
  Frame.close w (Frame.open_reply w ~status:(status_code status) ~seq);
  enqueue_reply ?rec_ c status w

(* Split the service window into its marshal and handler shares for the
   phase timeline: the per-byte cost is marshal work, halved between
   decode and encode, and the fixed cost is the handler.  All shares
   are integer nanoseconds computed against the record's cursor, so
   they telescope exactly with the surrounding boundaries.  A request
   that died in decode burned the whole window there. *)
let charge_service t r ~start ~body_len ~decode_only =
  Obs_request.mark r Obs_request.Queue_wait ~now_s:start;
  let service_ns =
    Obs_request.ns_of_s (Sim_core.now t.sim) - Obs_request.end_ns r
  in
  if decode_only then Obs_request.add_ns r Obs_request.Decode service_ns
  else begin
    let marshal_ns =
      min service_ns
        (Obs_request.ns_of_s
           (t.cfg.service_per_byte_s *. float_of_int body_len))
    in
    let dec = marshal_ns / 2 in
    Obs_request.add_ns r Obs_request.Decode dec;
    Obs_request.add_ns r Obs_request.Handler (service_ns - marshal_ns);
    Obs_request.add_ns r Obs_request.Encode (marshal_ns - dec)
  end

(* Service completion: runs on the virtual CPU once the request's slot
   comes up.  The work was spent either way; a connection that died in
   the meantime just loses the reply.  Every path lets go of the
   body's delivery. *)
let complete c (entry : op_entry) ~seq ~body ~hold ~arrival ~start rec_ =
  let t = c.c_server in
  t.in_flight <- t.in_flight - 1;
  c.c_in_flight <- c.c_in_flight - 1;
  set_gauge_in_flight t;
  let plen = Mbuf.remaining body in
  let body_len = plen + body_min in
  if c.c_closed then begin
    drop hold;
    t.s_dropped_replies <- t.s_dropped_replies + 1;
    match rec_ with
    | Some r ->
        charge_service t r ~start ~body_len ~decode_only:false;
        Obs_request.set_outcome r Obs_request.Rdropped;
        Obs_request.finish r
    | None -> ()
  end
  else
    match entry.oe_decode body with
    | exception (Mbuf.Short_buffer | Codec.Decode_error _) ->
        drop hold;
        (match rec_ with
        | Some r -> charge_service t r ~start ~body_len ~decode_only:true
        | None -> ());
        t.s_bad_request <- t.s_bad_request + 1;
        record_diag t "connection %d: undecodable %s request (seq %d, %d bytes)"
          c.c_id entry.oe_spec.os_name seq plen;
        fault_reply ?rec_ c Sbad_request seq
    | vals -> (
        let w = Mbuf.acquire () in
        let at = Frame.open_reply w ~status:(status_code Sok) ~seq in
        match entry.oe_encode w (entry.oe_spec.os_handler vals) with
        | exception e ->
            Mbuf.release w;
            drop hold;
            raise e
        | () ->
            drop hold;
            Frame.close w at;
            (match rec_ with
            | Some r -> charge_service t r ~start ~body_len ~decode_only:false
            | None -> ());
            enqueue_reply ?rec_ c Sok w;
            t.s_ok_replies <- t.s_ok_replies + 1;
            let lat_ns = (Sim_core.now t.sim -. arrival) *. 1e9 in
            (match rec_ with
            | Some r ->
                Obs.observe_ex h_latency lat_ns
                  ~exemplar:(Obs_request.trace_id r)
            | None -> Obs.observe h_latency lat_ns);
            Obs.observe (conn_hist c.c_id) lat_ns)

(* -- request path -------------------------------------------------- *)

(* The trace record of a request frame that just arrived, when the
   recorder is on: the client-transmit record, its wire and header
   phases closed at this instant.  A frame fed straight into a parser
   (no client transmit) starts its timeline here, so fault-injected
   requests still reach the flight ring. *)
let arrival_record ~sim ~domain ~conn ~seq =
  if not (Obs_request.enabled ()) then None
  else begin
    let now_s = Sim_core.now sim in
    let r =
      match Obs_request.find ~domain ~conn ~seq with
      | Some r -> r
      | None -> Obs_request.client_send ~domain ~conn ~seq ~now_s
    in
    Obs_request.mark r Obs_request.Ingress_wire ~now_s;
    Obs_request.mark r Obs_request.Header_parse ~now_s;
    Some r
  end

let handle_frame c hold body =
  let t = c.c_server in
  t.s_frames_in <- t.s_frames_in + 1;
  Obs.incr c_frames_in 1;
  let iface = Frame.word c.c_parser 0 in
  let op = Frame.word c.c_parser 1 in
  let seq = Frame.word c.c_parser 2 in
  let rec_ =
    arrival_record ~sim:t.sim ~domain:t.rec_domain ~conn:c.c_id ~seq
  in
  match Hashtbl.find_opt t.ops (iface, op) with
  | None ->
      t.s_unknown_op <- t.s_unknown_op + 1;
      record_diag t "connection %d: unknown operation (iface %d, op %d)" c.c_id
        iface op;
      fault_reply ?rec_ c Sunknown_op seq
  | Some entry ->
      (* fairness: one connection cannot pipeline its way to the whole
         budget — past its per-connection share it sheds even while
         global slots remain, so its peers' requests still land *)
      let conn_capped =
        match t.cfg.max_in_flight_per_conn with
        | Some cap -> c.c_in_flight >= cap
        | None -> false
      in
      if t.in_flight >= t.cfg.max_in_flight || conn_capped then begin
        t.s_shed <- t.s_shed + 1;
        if conn_capped && t.in_flight < t.cfg.max_in_flight then
          t.s_shed_per_conn <- t.s_shed_per_conn + 1;
        Obs.incr c_shed 1;
        fault_reply ?rec_ c Sshed seq
      end else begin
        t.s_accepted <- t.s_accepted + 1;
        Obs.incr c_accepted 1;
        t.in_flight <- t.in_flight + 1;
        c.c_in_flight <- c.c_in_flight + 1;
        set_gauge_in_flight t;
        (* the body stays a reader over its delivery until service *)
        (match hold with Some h -> h.h_refs <- h.h_refs + 1 | None -> ());
        let arrival = Sim_core.now t.sim in
        let service =
          t.cfg.service_fixed_s
          +. t.cfg.service_per_byte_s
             *. float_of_int (Mbuf.remaining body + body_min)
        in
        let start = Float.max arrival t.cpu_busy_until in
        let finish = start +. service in
        t.cpu_busy_until <- finish;
        Sim_core.schedule t.sim ~delay:(finish -. arrival) (fun () ->
            complete c entry ~seq ~body ~hold ~arrival ~start rec_)
      end

(* One delivery: client bytes, or a writer the server now owns (let go
   of once no accepted body reads it). *)
let receive c rd ~bytes hold =
  let t = c.c_server in
  if not c.c_closed then begin
    t.s_bytes_in <- t.s_bytes_in + bytes;
    Frame.feed c.c_parser rd
      ~bad:(fun len ->
        kill c "bad frame length %d (min %d, max %d)" len body_min
          t.cfg.max_frame)
      (handle_frame c hold)
  end;
  drop hold

let feed c data =
  receive c (Mbuf.reader_of_bytes data) ~bytes:(Bytes.length data) None

(* Put a client transmission on [link].  With the recorder on, a trace
   record opens per whole request frame in it at this (client-transmit)
   instant and is charged the wire queueing. *)
let client_transmit ~sim ~link ~domain ~conn_id ~bytes frames k =
  if not (Obs_request.enabled ()) then Link.transmit link ~bytes k
  else begin
    let rd = frames () in
    let p = Frame.parser ~head:Frame.request_head ~max_body:(Mbuf.remaining rd) in
    let now_s = Sim_core.now sim and recs = ref [] in
    Frame.feed p rd ~bad:ignore (fun _ ->
        let seq = Frame.word p 2 in
        recs := Obs_request.client_send ~domain ~conn:conn_id ~seq ~now_s :: !recs);
    let tm = Link.transmit_timed link ~bytes k in
    let qns = Obs_request.ns_of_s tm.Link.tx_queue_s in
    List.iter (fun r -> Obs_request.add_wire_queue_ns r qns) !recs
  end

let send c data =
  let t = c.c_server in
  client_transmit ~sim:t.sim ~link:t.ingress ~domain:t.rec_domain
    ~conn_id:c.c_id ~bytes:(Bytes.length data)
    (fun () -> Mbuf.reader_of_bytes data)
    (fun () -> feed c data)

let send_mbuf c w =
  let t = c.c_server in
  client_transmit ~sim:t.sim ~link:t.ingress ~domain:t.rec_domain
    ~conn_id:c.c_id ~bytes:(Mbuf.pos w)
    (fun () -> Mbuf.reader w)
    (fun () ->
      receive c (Mbuf.reader w) ~bytes:(Mbuf.pos w)
        (Some { h_msg = w; h_refs = 1 }))

(* -- client-side frame helpers ------------------------------------- *)

let request_frame spec ~seq vals =
  let encode =
    Stub_opt.compile_encoder ~enc:spec.os_enc ~mint:spec.os_mint
      ~named:spec.os_named spec.os_req_roots
  in
  let w = Mbuf.acquire () in
  Fun.protect
    ~finally:(fun () -> Mbuf.release w)
    (fun () ->
      let at =
        Frame.open_request w ~iface:spec.os_iface ~op:spec.os_op ~seq
      in
      encode w vals;
      Frame.close w at;
      Mbuf.contents w)

let parse_replies data =
  let p = Frame.parser ~head:Frame.reply_head ~max_body:(Bytes.length data) in
  let torn () = invalid_arg "Rpc_serve.parse_replies: torn frame" in
  let acc = ref [] in
  Frame.feed p (Mbuf.reader_of_bytes data)
    ~bad:(fun _ -> torn ())
    (fun pl ->
      let status =
        match status_of_code (Frame.word p 0) with
        | Some s -> s
        | None -> invalid_arg "Rpc_serve.parse_replies: bad status"
      in
      acc := (status, Frame.word p 1, Mbuf.read_bytes pl (Mbuf.remaining pl))
             :: !acc);
  if Frame.pending p > 0 then torn ();
  List.rev !acc

(* -- accounting ---------------------------------------------------- *)

type stats = {
  st_frames_in : int;
  st_bytes_in : int;
  st_bytes_out : int;
  st_accepted : int;
  st_shed : int;
  st_shed_per_conn : int;
  st_bad_request : int;
  st_unknown_op : int;
  st_ok_replies : int;
  st_flushes : int;
  st_coalesced : int;
  st_dropped_replies : int;
  st_killed_conns : int;
  st_in_flight_hw : int;
}

let stats t =
  {
    st_frames_in = t.s_frames_in;
    st_bytes_in = t.s_bytes_in;
    st_bytes_out = t.s_bytes_out;
    st_accepted = t.s_accepted;
    st_shed = t.s_shed;
    st_shed_per_conn = t.s_shed_per_conn;
    st_bad_request = t.s_bad_request;
    st_unknown_op = t.s_unknown_op;
    st_ok_replies = t.s_ok_replies;
    st_flushes = t.s_flushes;
    st_coalesced = t.s_coalesced;
    st_dropped_replies = t.s_dropped_replies;
    st_killed_conns = t.s_killed_conns;
    st_in_flight_hw = t.s_in_flight_hw;
  }

(* -- the bundled closed-loop workload ------------------------------ *)

type sweep_point = {
  sp_conns : int;
  sp_requests : int;
  sp_ok : int;
  sp_shed_final : int;
  sp_retransmits : int;
  sp_duration_s : float;
  sp_rps : float;
  sp_shed_rate : float;
  sp_p50_us : float;
  sp_p99_us : float;
  sp_diff_ok : bool;
  sp_stats : stats;
}

let style_of_enc (enc : Encoding.t) =
  match enc.Encoding.name with
  | "cdr" -> `Corba
  | "xdr" -> `Rpcgen
  | _ -> `Fluke

let run_workload ?(enc = Encoding.xdr) ?(payload = `Ints) ?(payload_bytes = 1024)
    ?(requests_per_conn = 100) ?(config = default_config) ?(retry = true)
    ~conns () =
  let sim = Sim_core.create () in
  let ingress = Link.ethernet_100 ~sim in
  let egress = Link.ethernet_100 ~sim in
  let t = create ~sim ~config ~ingress ~egress () in
  let pc = Paper_fixtures.bench_presc (style_of_enc enc) in
  let op_name = Paper_fixtures.op_of_payload payload in
  let ms = Paper_fixtures.request_spec pc ~op:op_name in
  let spec = echo_op ~iface:1 ~op:1 ~enc ms in
  register t spec;
  let vals = [| Paper_fixtures.payload payload ~bytes:payload_bytes |] in
  let expect =
    let w = Mbuf.create 256 in
    (Stub_opt.compile_encoder ~enc ~mint:spec.os_mint ~named:spec.os_named
       spec.os_req_roots) w vals;
    Mbuf.contents w
  in
  let ok = ref 0
  and shed_final = ref 0
  and retransmits = ref 0
  and diff_ok = ref true
  and last_reply = ref 0.
  and latencies = ref [] in
  for cid = 0 to conns - 1 do
    let issued = ref 0 in
    let retried = ref false in
    let send_time = ref 0. in
    let the_conn = ref None in
    let send_current () =
      let seq = (cid * 1_000_000) + !issued in
      send_time := Sim_core.now sim;
      send (Option.get !the_conn) (request_frame spec ~seq vals)
    in
    let send_next () =
      if !issued < requests_per_conn then begin
        incr issued;
        retried := false;
        send_current ()
      end
    in
    let deliver data =
      List.iter
        (fun (status, _seq, pl) ->
          match status with
          | Sok ->
              incr ok;
              let now = Sim_core.now sim in
              latencies := (now -. !send_time) :: !latencies;
              if now > !last_reply then last_reply := now;
              if not (Bytes.equal pl expect) then diff_ok := false;
              send_next ()
          | Sshed ->
              if retry && not !retried then begin
                retried := true;
                incr retransmits;
                Obs.incr c_retransmits 1;
                (* back off a couple of round trips before retrying *)
                Sim_core.schedule sim ~delay:2e-3 send_current
              end else begin
                incr shed_final;
                send_next ()
              end
          | Sbad_request | Sunknown_op ->
              diff_ok := false;
              send_next ())
        (parse_replies data)
    in
    let conn = connect t ~deliver in
    the_conn := Some conn;
    (* stagger the first requests so connections do not move in
       lockstep *)
    Sim_core.schedule sim ~delay:(float_of_int cid *. 10e-6) send_next
  done;
  Sim_core.run sim;
  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let pct p =
    let n = Array.length lat in
    if n = 0 then 0.
    else lat.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let st = stats t in
  let duration = if !last_reply > 0. then !last_reply else Sim_core.now sim in
  let duration = if duration <= 0. then 1e-9 else duration in
  {
    sp_conns = conns;
    sp_requests = conns * requests_per_conn;
    sp_ok = !ok;
    sp_shed_final = !shed_final;
    sp_retransmits = !retransmits;
    sp_duration_s = duration;
    sp_rps = float_of_int !ok /. duration;
    sp_shed_rate =
      (if st.st_frames_in = 0 then 0.
       else float_of_int st.st_shed /. float_of_int st.st_frames_in);
    sp_p50_us = pct 0.5 *. 1e6;
    sp_p99_us = pct 0.99 *. 1e6;
    sp_diff_ok = !diff_ok;
    sp_stats = st;
  }
