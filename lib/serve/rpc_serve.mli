(** A concurrent RPC server loop on the discrete-event simulator.

    This is the paper's stubs put under real traffic: N simulated
    connections feed length-prefixed request frames into a demultiplexer
    that routes by (interface id, operation id) to per-interface
    compiled plans — the encoder and decoder closures come out of the
    shared {!Plan_cache} via {!Stub_opt}, so every registered operation
    rides the same optimized marshal path the benchmarks measure.  The
    shape follows an event-loop server: per-connection producers push
    bytes in, the server executes decode → handler → encode out of
    pooled {!Mbuf} writers on a serial virtual CPU, and replies drain
    per connection through coalesced flushes (one wire message carrying
    every reply that became ready inside the flush window).

    {2 Backpressure}

    Accepted-but-incomplete requests are bounded by
    [config.max_in_flight].  A request arriving at the budget is {e
    shed}: the server answers immediately with an explicit
    {!Sshed} reject frame rather than queueing without bound — the
    client knows to back off (the bundled workload retransmits once).
    Shedding happens before the body is decoded, so overload costs the
    server only the frame header parse.

    {2 Fault containment}

    A malformed length prefix kills exactly the connection that sent it
    (with a pinned {!Diag}-formatted error recorded in {!diags});
    a well-framed body that fails to decode earns an {!Sbad_request}
    reply and the connection lives on; an unknown interface/op id earns
    {!Sunknown_op}.  Every failure path releases its pooled writers —
    {!Mbuf.pool_stats} returns to baseline, which the fault-injection
    tests assert.

    {2 Wire format}

    Big-endian throughout ({!Frame}).  Request frame:
    [len:u32] [iface:u32] [op:u32] [seq:u32] [payload...], where [len]
    counts the body (everything after the length word).  Reply frame:
    [len:u32] [status:u32] [seq:u32] [payload...].  Frames are parsed
    in place: bytes handed to {!send} or {!feed} are retained by
    reference until their requests complete. *)

(** {1 Server} *)

type t

type config = {
  max_in_flight : int;
      (** backpressure budget: accepted requests not yet replied *)
  max_in_flight_per_conn : int option;
      (** fairness cap on one connection's share of the budget: a
          connection already holding this many in-flight requests is
          shed even while global slots remain, so a pipelining hog
          cannot starve its peers ([None] = global budget only; the
          hog-vs-peers latency test pins the effect). *)
  max_frame : int;  (** bodies larger than this are a protocol error *)
  service_fixed_s : float;
      (** virtual seconds of server CPU per request, fixed part *)
  service_per_byte_s : float;  (** ... plus this per body byte *)
  flush_delay_s : float;
      (** reply coalescing window: replies becoming ready within this
          window of each other leave in one wire message *)
}

val default_config : config
(** 32 in flight (no per-connection cap), 1 MiB frames, 150us + 1ns/B
    service, 50us flush. *)

(** One registered operation: the request/reply marshal specs plus the
    handler.  The encoder and decoder are compiled through the shared
    plan cache at {!register} time. *)
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

val echo_op :
  iface:int -> op:int -> enc:Encoding.t -> Paper_fixtures.method_spec ->
  op_spec
(** The identity service on one of the paper's bench operations: decode
    the request, re-encode the same values as the reply.  Replies are
    therefore byte-identical to request payloads, which is what the
    differential tests pin. *)

val create :
  sim:Sim_core.t -> ?config:config -> ingress:Link.t -> egress:Link.t ->
  unit -> t
(** A server on the given simulator.  [ingress] carries request frames
    from every connection (the shared NIC receive side), [egress] the
    reply flushes; both serialize, so heavy traffic queues exactly as it
    would on one host's wire. *)

val register : t -> op_spec -> unit
(** Add the operation to the demux table (replacing any previous entry
    for the same (iface, op)), compiling its plans through the cache. *)

val trace_domain : t -> int
(** This server's {!Obs_request} correlation domain: trace records for
    its requests are keyed [(trace_domain, conn id, seq)].  Unique per
    server instance, so gateways and backends sharing a process never
    collide. *)

(** {1 Connections} *)

type conn

val connect : t -> deliver:(bytes -> unit) -> conn
(** A new connection whose reply flushes arrive at [deliver] (after the
    egress link's delay).  Connection ids count up from 0 per server. *)

val conn_id : conn -> int

val send : conn -> bytes -> unit
(** Transmit raw bytes from the client over the ingress link; they are
    fed to the server's frame parser on arrival.  When the request
    recorder is enabled, a trace record is opened per complete request
    frame at this (client-transmit) instant — the recorder-off path is
    the historical one, untouched. *)

val send_mbuf : conn -> Mbuf.t -> unit
(** {!send} for a pooled writer of request frames (the gateway's
    backend hop): the decoder reads its segments in place, borrowed ones
    included.  The server owns the writer from here and releases it
    once the last body in it is done, on every path. *)

val client_transmit :
  sim:Sim_core.t -> link:Link.t -> domain:int -> conn_id:int -> bytes:int ->
  (unit -> Mbuf.reader) -> (unit -> unit) -> unit
(** {!send} on any link: with the recorder on, a trace record opens per
    request frame in [frames ()] under [(domain, conn_id)]. *)

val arrival_record :
  sim:Sim_core.t -> domain:int -> conn:int -> seq:int ->
  Obs_request.record option
(** The trace record of a request frame arriving now (its wire and
    header phases closed here), or [None] with the recorder off. *)

val feed : conn -> bytes -> unit
(** Hand bytes straight to the server's frame parser, bypassing the
    link — the fault-injection tests use this for byte-exact control.
    A frame cut across deliveries is carried per connection. *)

val close_conn : conn -> unit
(** The client vanishes: pending input is discarded (a partial frame is
    recorded as a truncation error), queued replies are dropped and
    their writers released, and later frames or flushes for this
    connection are ignored.  Other connections are unaffected. *)

(** {1 Frames (client side)} *)

type status = Sok | Sshed | Sbad_request | Sunknown_op

val status_code : status -> int
val status_of_code : int -> status option

val request_frame :
  op_spec -> seq:int -> Value.t array -> bytes
(** A complete request frame for the operation, payload encoded with the
    same cached encoder the server's echo baseline uses. *)

val parse_replies : bytes -> (status * int * bytes) list
(** Split one delivered flush into [(status, seq, payload)] reply
    frames.  Flushes always carry whole frames. *)

(** {1 Accounting} *)

type stats = {
  st_frames_in : int;  (** complete request frames parsed *)
  st_bytes_in : int;
  st_bytes_out : int;
  st_accepted : int;
  st_shed : int;  (** requests refused at the in-flight budget *)
  st_shed_per_conn : int;
      (** of those, refused by the per-connection fairness cap while
          global slots were still free *)
  st_bad_request : int;  (** well-framed bodies that failed to decode *)
  st_unknown_op : int;
  st_ok_replies : int;
  st_flushes : int;  (** wire messages carrying replies *)
  st_coalesced : int;  (** replies that shared a flush with an earlier one *)
  st_dropped_replies : int;  (** replies discarded because the connection died *)
  st_killed_conns : int;  (** connections killed by protocol errors *)
  st_in_flight_hw : int;  (** high-water mark of the in-flight gauge *)
}

val stats : t -> stats

val diags : t -> string list
(** Every error this server recorded, {!Diag}-formatted, oldest first.
    The fault-injection tests pin these strings. *)

val in_flight : t -> int

(** {1 The bundled demo/bench workload}

    A socket-free closed-loop workload: [conns] connections each issue
    [requests_per_conn] echo requests of one paper payload, one
    outstanding request per connection, retrying a shed request once
    (counted as a retransmit) before giving up on it.  Deterministic:
    all time is virtual, so requests/sec and shed rates are exactly
    reproducible. *)

type sweep_point = {
  sp_conns : int;
  sp_requests : int;  (** logical requests issued *)
  sp_ok : int;
  sp_shed_final : int;  (** requests abandoned after the retry was shed too *)
  sp_retransmits : int;
  sp_duration_s : float;  (** virtual time of the last reply *)
  sp_rps : float;  (** completed requests per virtual second *)
  sp_shed_rate : float;  (** shed replies / frames sent *)
  sp_p50_us : float;  (** client-observed round-trip latency, virtual *)
  sp_p99_us : float;
  sp_diff_ok : bool;
      (** every Ok reply payload was byte-identical to its request's *)
  sp_stats : stats;
}

val run_workload :
  ?enc:Encoding.t ->
  ?payload:[ `Ints | `Rects | `Dirents ] ->
  ?payload_bytes:int ->
  ?requests_per_conn:int ->
  ?config:config ->
  ?retry:bool ->
  conns:int ->
  unit ->
  sweep_point
(** Defaults: XDR, 1 KiB integer arrays, 100 requests per connection,
    {!default_config}, retry on. *)
