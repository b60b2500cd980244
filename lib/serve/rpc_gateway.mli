(** A gateway (proxy) topology on the discrete-event simulator.

    Clients speaking the [src] encoding connect to a proxy; the proxy
    relays each request over its own connection to an echo backend
    speaking the [dst] encoding, and relays the reply back.  Both hops
    use {!Rpc_serve}'s wire format and ride simulator {!Link}s.

    The relay path is the point: by default the proxy executes fused
    forward stubs ({!Stub_forward.compile_forward}) over request and
    reply payloads — same-encoding spans move as blits or
    scatter-gather borrows of the receive buffer, cross-encoding
    scalars convert in place, and no {!Value.t} is ever built.  With
    [forward:false] it runs the decode-then-reencode baseline
    (materialize every value through {!Stub_opt}, re-encode), which is
    what [bench gateway] compares against and what [make ci] exercises
    as the forced-fallback pass.

    Buffers: bytes handed to {!send} or {!feed} are retained by
    reference until their requests complete.  A relayed request crosses
    to the backend as the pooled writer it was relayed into
    ({!Rpc_serve.send_mbuf}), which the backend then owns.

    Sequence numbers: the proxy owns the backend hop's sequence space
    (one backend connection funnels every client) and demultiplexes
    replies through a pending table back to the originating client
    connection and its original sequence number.  A relay failure in
    either direction earns the client an {!Rpc_serve.Sshed}-style
    error reply ({!Rpc_serve.Sbad_request}); backend shed/error
    statuses pass through untouched. *)

type t
type gconn

val create :
  sim:Sim_core.t ->
  ?forward:bool ->
  ?config:Rpc_serve.config ->
  src:Encoding.t ->
  dst:Encoding.t ->
  unit ->
  t
(** A proxy plus its backend server and the four links (client→proxy,
    proxy→client, proxy→backend, backend→proxy).  [forward] (default
    [true]) selects fused relaying; [config] is the backend server's
    configuration (and supplies the proxy's frame-length bound). *)

val register : t -> Paper_fixtures.method_spec -> iface:int -> op:int -> unit
(** Route one operation: registers the echo under the destination
    encoding on the backend and compiles the two relay closures
    (request: src→dst, reply: dst→src) through the shared caches. *)

val backend : t -> Rpc_serve.t
val route_name : t -> iface:int -> op:int -> string option

val trace_domain : t -> int
(** The client hop's {!Obs_request} correlation domain.  When the
    request recorder is enabled, {!send} opens one trace record per
    request frame here, and the proxy hands the trace id to the backend
    hop through the pending table — the backend's record (under
    {!Rpc_serve.trace_domain} of {!backend}) joins the same trace at
    hop 1, so the two per-hop timelines stitch to the exact
    client-observed round trip. *)

val connect : t -> deliver:(bytes -> unit) -> gconn
(** A client connection; reply frames arrive at [deliver] after the
    proxy→client link delay. *)

val conn_id : gconn -> int

val send : gconn -> bytes -> unit
(** Transmit raw bytes over the client→proxy link. *)

val feed : gconn -> bytes -> unit
(** Hand bytes straight to the proxy's frame parser (the byte-exact
    seam the fault tests drive).  A frame cut across deliveries is
    carried per connection; a bad length prefix kills exactly this
    connection. *)

val close_conn : gconn -> unit

val client_frame :
  t -> Paper_fixtures.method_spec -> iface:int -> op:int -> seq:int ->
  Value.t array -> bytes
(** A complete request frame under the {e client} ([src]) encoding. *)

type stats = {
  gs_requests_in : int;  (** complete request frames parsed *)
  gs_relayed_req : int;  (** requests relayed to the backend *)
  gs_relayed_rep : int;  (** Ok replies relayed to clients *)
  gs_relay_errors : int;  (** relays that raised (client got Sbad_request) *)
  gs_unknown_op : int;
  gs_killed_conns : int;  (** client connections killed by framing errors *)
  gs_pending : int;  (** requests awaiting a backend reply *)
  gs_bytes_in : int;
  gs_bytes_out : int;
  gs_backend : Rpc_serve.stats;
}

val stats : t -> stats
