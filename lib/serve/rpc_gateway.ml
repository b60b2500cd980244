(* A gateway topology on the simulator: clients speak the [src]
   encoding to a proxy, which relays each request to an echo backend
   speaking the [dst] encoding and relays the reply back.  The proxy
   never materializes values on the relay path: it executes fused
   forward stubs (Stub_forward) over the request and reply payloads —
   or, with [forward:false], the decode-then-reencode baseline the
   bench compares against.

   Framing is Rpc_serve's wire format on both hops (Frame); requests
   reach the backend as the writer they were relayed into.  The proxy
   owns the sequence space on the backend hop (one backend connection
   funnels every client), demultiplexing replies through a pending
   table back to the originating client connection and its original
   sequence number. *)

type route = {
  rt_name : string;
  rt_relay_req : Stub_forward.forward;  (* src payload -> dst payload *)
  rt_relay_rep : Stub_forward.forward;  (* dst payload -> src payload *)
}

type t = {
  gsim : Sim_core.t;
  src : Encoding.t;
  dst : Encoding.t;
  forward : bool;
  mf : int;  (* frame-length sanity bound, both hops *)
  cl_ingress : Link.t;  (* client -> proxy *)
  cl_egress : Link.t;  (* proxy -> client *)
  backend : Rpc_serve.t;
  bconn : Rpc_serve.conn;
  routes : (int * int, route) Hashtbl.t;
  pending : (int, gconn * int * route * Obs_request.record option) Hashtbl.t;
      (* proxy seq -> origin (plus the client hop's trace record) *)
  gw_domain : int;  (* request-recorder correlation domain, client hop *)
  mutable next_pseq : int;
  mutable next_conn : int;
  mutable g_requests_in : int;
  mutable g_relayed_req : int;
  mutable g_relayed_rep : int;
  mutable g_relay_errors : int;
  mutable g_unknown_op : int;
  mutable g_killed_conns : int;
  mutable g_bytes_in : int;
  mutable g_bytes_out : int;
}

and gconn = {
  g_id : int;
  g_gw : t;
  g_deliver : bytes -> unit;
  mutable g_closed : bool;
  g_parser : Frame.parser;
}

let c_gw_requests = Obs.counter "gateway.requests"
let c_gw_relay_errors = Obs.counter "gateway.relay_errors"

(* The decode-then-reencode baseline the fused path is measured
   against: materialize every value, re-encode under the destination
   encoding.  Compiled through the same caches as any server stub. *)
let baseline_relay ~src ~dst ~mint ~named droots roots : Stub_forward.forward
    =
  let dec = Stub_opt.compile_decoder ~enc:src ~mint ~named droots in
  let re = Stub_opt.compile_encoder ~enc:dst ~mint ~named roots in
  fun r w -> re w (dec r)

let relay_for t ~(from_enc : Encoding.t) ~(to_enc : Encoding.t)
    (ms : Paper_fixtures.method_spec) : Stub_forward.forward =
  if t.forward then
    Stub_forward.compile_forward ~src:from_enc ~dst:to_enc
      ~mint:ms.Paper_fixtures.ms_mint ~named:ms.Paper_fixtures.ms_named
      (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots)
      ms.Paper_fixtures.ms_roots
  else
    baseline_relay ~src:from_enc ~dst:to_enc ~mint:ms.Paper_fixtures.ms_mint
      ~named:ms.Paper_fixtures.ms_named ms.Paper_fixtures.ms_droots
      ms.Paper_fixtures.ms_roots

(* -- reply hop: backend -> proxy -> client -------------------------- *)

(* [rec_] is the client hop's trace record: delivery closes its egress
   phase and finishes it (the relay itself is instantaneous in virtual
   time, so there is no flush-wait on this hop). *)
let deliver_to_client ?rec_ t (g : gconn) data =
  t.g_bytes_out <- t.g_bytes_out + Bytes.length data;
  match rec_ with
  | None ->
      Link.transmit t.cl_egress ~bytes:(Bytes.length data) (fun () ->
          if not g.g_closed then g.g_deliver data)
  | Some r ->
      let tm =
        Link.transmit_timed t.cl_egress ~bytes:(Bytes.length data) (fun () ->
            Obs_request.mark r Obs_request.Egress_wire
              ~now_s:(Sim_core.now t.gsim);
            Obs_request.finish r;
            if not g.g_closed then g.g_deliver data)
      in
      Obs_request.add_wire_queue_ns r (Obs_request.ns_of_s tm.Link.tx_queue_s)

(* A reply frame for the client, [payload] written behind its head.
   Client edges are bytes, so the frame is flattened once here. *)
let reply_frame status ~seq payload =
  let w = Mbuf.acquire () in
  Fun.protect
    ~finally:(fun () -> Mbuf.release w)
    (fun () ->
      let at = Frame.open_reply w ~status ~seq in
      payload w;
      Frame.close w at;
      Mbuf.contents w)

let bad_request = Rpc_serve.status_code Rpc_serve.Sbad_request

let relay_failed ?rec_ t g seq =
  t.g_relay_errors <- t.g_relay_errors + 1;
  Obs.incr c_gw_relay_errors 1;
  (match rec_ with
  | Some r -> Obs_request.set_outcome r Obs_request.Rbad_request
  | None -> ());
  deliver_to_client ?rec_ t g (reply_frame bad_request ~seq ignore)

let on_backend_reply t p payload =
  let status = Frame.word p 0 and pseq = Frame.word p 1 in
  match Hashtbl.find_opt t.pending pseq with
  | None -> () (* originating client connection is gone *)
  | Some (g, seq, rt, rec_) -> (
      Hashtbl.remove t.pending pseq;
      (* the backend window just closed: the hop-1 record (finished at
         this same instant) owns it, so the client hop's record skips
         to now without charging a phase *)
      (match rec_ with
      | Some r -> Obs_request.skip_to r ~now_s:(Sim_core.now t.gsim)
      | None -> ());
      if status <> Rpc_serve.status_code Rpc_serve.Sok then begin
        (* shed / error statuses pass through untouched *)
        (match rec_ with
        | Some r ->
            Obs_request.set_outcome r (Obs_request.outcome_of_fault_status status)
        | None -> ());
        deliver_to_client ?rec_ t g (reply_frame status ~seq ignore)
      end
      else
        match reply_frame status ~seq (rt.rt_relay_rep payload) with
        | exception (Mbuf.Short_buffer | Codec.Decode_error _) ->
            relay_failed ?rec_ t g seq
        | f ->
            t.g_relayed_rep <- t.g_relayed_rep + 1;
            deliver_to_client ?rec_ t g f)

(* Flushes carry whole frames, so a frame may not run past the data. *)
let on_backend_flush t data =
  let p = Frame.parser ~head:Frame.reply_head ~max_body:(Bytes.length data) in
  Frame.feed p (Mbuf.reader_of_bytes data)
    ~bad:(fun _ -> invalid_arg "Rpc_gateway: torn backend reply")
    (on_backend_reply t p)

(* -- request hop: client -> proxy -> backend ------------------------ *)

let handle_frame t (g : gconn) body =
  t.g_requests_in <- t.g_requests_in + 1;
  Obs.incr c_gw_requests 1;
  let iface = Frame.word g.g_parser 0 in
  let op = Frame.word g.g_parser 1 in
  let seq = Frame.word g.g_parser 2 in
  let rec_ =
    Rpc_serve.arrival_record ~sim:t.gsim ~domain:t.gw_domain ~conn:g.g_id ~seq
  in
  match Hashtbl.find_opt t.routes (iface, op) with
  | None ->
      t.g_unknown_op <- t.g_unknown_op + 1;
      (match rec_ with
      | Some r -> Obs_request.set_outcome r Obs_request.Runknown_op
      | None -> ());
      deliver_to_client ?rec_ t g
        (reply_frame (Rpc_serve.status_code Rpc_serve.Sunknown_op) ~seq ignore)
  | Some rt -> (
      let pseq = t.next_pseq land 0xffffffff in
      let w = Mbuf.acquire () in
      let at = Frame.open_request w ~iface ~op ~seq:pseq in
      match rt.rt_relay_req body w with
      | exception (Mbuf.Short_buffer | Codec.Decode_error _) ->
          Mbuf.release w;
          relay_failed ?rec_ t g seq
      | () ->
          Frame.close w at;
          t.next_pseq <- t.next_pseq + 1;
          Hashtbl.add t.pending pseq (g, seq, rt, rec_);
          t.g_relayed_req <- t.g_relayed_req + 1;
          (* hand the trace to the backend hop before relaying: its
             record (keyed by the backend's domain, the shared backend
             connection, and the proxy sequence) joins this trace at
             hop 1, so the two timelines stitch in the export *)
          (match rec_ with
          | Some r ->
              Obs_request.propagate
                ~domain:(Rpc_serve.trace_domain t.backend)
                ~conn:(Rpc_serve.conn_id t.bconn)
                ~seq:pseq
                ~trace:(Obs_request.trace_id r)
                ~hop:1
                ~sampled:(Obs_request.is_sampled r)
          | None -> ());
          (* the writer itself crosses to the backend, which releases
             it once the body is done *)
          Rpc_serve.send_mbuf t.bconn w)

(* Protocol error: this client connection dies, others live. *)
let kill t (g : gconn) =
  t.g_killed_conns <- t.g_killed_conns + 1;
  g.g_closed <- true;
  Frame.discard g.g_parser;
  if Obs_request.enabled () then
    Obs_request.abort_conn ~domain:t.gw_domain ~conn:g.g_id
      ~ensure_marker:true ~outcome:Obs_request.Rkilled
      ~now_s:(Sim_core.now t.gsim) ()

let feed (g : gconn) data =
  if not g.g_closed then begin
    let t = g.g_gw in
    t.g_bytes_in <- t.g_bytes_in + Bytes.length data;
    Frame.feed g.g_parser (Mbuf.reader_of_bytes data)
      ~bad:(fun _ -> kill t g)
      (handle_frame t g)
  end

let send (g : gconn) data =
  let t = g.g_gw in
  Rpc_serve.client_transmit ~sim:t.gsim ~link:t.cl_ingress ~domain:t.gw_domain
    ~conn_id:g.g_id ~bytes:(Bytes.length data)
    (fun () -> Mbuf.reader_of_bytes data)
    (fun () -> feed g data)

let connect t ~deliver =
  let id = t.next_conn in
  t.next_conn <- id + 1;
  {
    g_id = id;
    g_gw = t;
    g_deliver = deliver;
    g_closed = false;
    g_parser = Frame.parser ~head:Frame.request_head ~max_body:t.mf;
  }

let conn_id (g : gconn) = g.g_id

let close_conn (g : gconn) =
  g.g_closed <- true;
  Frame.discard g.g_parser;
  if Obs_request.enabled () then begin
    let t = g.g_gw in
    Obs_request.abort_conn ~domain:t.gw_domain ~conn:g.g_id
      ~outcome:Obs_request.Rdropped ~now_s:(Sim_core.now t.gsim) ()
  end

(* -- construction --------------------------------------------------- *)

let create ~sim ?(forward = true) ?(config = Rpc_serve.default_config) ~src
    ~dst () =
  let cl_ingress = Link.ethernet_100 ~sim in
  let cl_egress = Link.ethernet_100 ~sim in
  let b_ingress = Link.ethernet_100 ~sim in
  let b_egress = Link.ethernet_100 ~sim in
  let backend =
    Rpc_serve.create ~sim ~config ~ingress:b_ingress ~egress:b_egress ()
  in
  let tref = ref None in
  let bconn =
    Rpc_serve.connect backend ~deliver:(fun data ->
        match !tref with Some t -> on_backend_flush t data | None -> ())
  in
  let t =
    {
      gsim = sim;
      src;
      dst;
      forward;
      mf = config.Rpc_serve.max_frame;
      cl_ingress;
      cl_egress;
      backend;
      bconn;
      routes = Hashtbl.create 8;
      pending = Hashtbl.create 64;
      next_pseq = 0;
      next_conn = 0;
      gw_domain = Obs_request.new_domain ();
      g_requests_in = 0;
      g_relayed_req = 0;
      g_relayed_rep = 0;
      g_relay_errors = 0;
      g_unknown_op = 0;
      g_killed_conns = 0;
      g_bytes_in = 0;
      g_bytes_out = 0;
    }
  in
  tref := Some t;
  t

let register t (ms : Paper_fixtures.method_spec) ~iface ~op =
  (* the backend serves the echo under the destination encoding *)
  Rpc_serve.register t.backend (Rpc_serve.echo_op ~iface ~op ~enc:t.dst ms);
  Hashtbl.replace t.routes (iface, op)
    {
      rt_name = ms.Paper_fixtures.ms_name;
      rt_relay_req = relay_for t ~from_enc:t.src ~to_enc:t.dst ms;
      rt_relay_rep = relay_for t ~from_enc:t.dst ~to_enc:t.src ms;
    }

let backend t = t.backend
let trace_domain t = t.gw_domain

let route_name t ~iface ~op =
  Option.map (fun rt -> rt.rt_name) (Hashtbl.find_opt t.routes (iface, op))

let client_frame t (ms : Paper_fixtures.method_spec) ~iface ~op ~seq vals =
  Rpc_serve.request_frame (Rpc_serve.echo_op ~iface ~op ~enc:t.src ms) ~seq
    vals

(* -- accounting ----------------------------------------------------- *)

type stats = {
  gs_requests_in : int;
  gs_relayed_req : int;
  gs_relayed_rep : int;
  gs_relay_errors : int;
  gs_unknown_op : int;
  gs_killed_conns : int;
  gs_pending : int;
  gs_bytes_in : int;
  gs_bytes_out : int;
  gs_backend : Rpc_serve.stats;
}

let stats t =
  {
    gs_requests_in = t.g_requests_in;
    gs_relayed_req = t.g_relayed_req;
    gs_relayed_rep = t.g_relayed_rep;
    gs_relay_errors = t.g_relay_errors;
    gs_unknown_op = t.g_unknown_op;
    gs_killed_conns = t.g_killed_conns;
    gs_pending = Hashtbl.length t.pending;
    gs_bytes_in = t.g_bytes_in;
    gs_bytes_out = t.g_bytes_out;
    gs_backend = Rpc_serve.stats t.backend;
  }
