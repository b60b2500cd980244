(* serve and gateway: closed-loop echo RPCs on the simulator, timed on
   the wall clock.  Virtual time only orders the events here; every
   number reported is wall time of the code that handles them.

   serve: small XDR requests through Rpc_serve, three operations
   demultiplexed, so most wall time is serve dispatch, the simulator
   and framing.  gateway: large requests relayed by Rpc_gateway's fused
   forward stubs to an echo backend -- the only workload that runs
   Stub_forward. *)

open Meter

(* One client connection: its request frames (sequence number patched
   at send time), the reply payload each must come back with, and a
   send order reshuffled from a seeded stream on every pass.  With a
   fixed order the same requests would always share the server, a
   pattern that differs from seed to seed and shows in the latency. *)
type client = {
  frames : bytes array;
  expect : bytes array;
  order : int array;
  rng : Random.State.t;
  outstanding : int;
  mutable pos : int;
  mutable send : bytes -> unit;
}

(* Larger than the number of requests ever in flight, so a sequence
   number's slot is free again by the time it is reused. *)
let window = 1024

type loop = {
  sim : Sim_core.t;
  clients : client array;
  slot_msg : int array;
  slot_t0 : float array;
  mutable next_seq : int;
  mutable stop : unit -> bool;
  mutable sl : Slicer.t;
  mutable payload_bytes : float;  (** echoed while traced *)
  sampled : int ref;
}

let issue l c =
  Span.span "client.send" (fun () ->
      let i = c.order.(c.pos) in
      c.pos <- c.pos + 1;
      if c.pos = Array.length c.order then begin
        c.pos <- 0;
        ignore (Inputs.shuffle c.rng c.order)
      end;
      let seq = l.next_seq in
      l.next_seq <- seq + 1;
      let f = Bytes.copy c.frames.(i) in
      Bytes.set_int32_be f 12 (Int32.of_int seq);
      let s = seq land (window - 1) in
      l.slot_msg.(s) <- i;
      l.slot_t0.(s) <- now_ns ();
      c.send f)

(* Latency runs from the send to the delivery carrying the reply.
   Replies are checked as they arrive: Sok and byte-identical to the
   request's payload (every server here is an echo). *)
let deliver l c data =
  let t = now_ns () in
  Span.sampled l.sampled (fun () ->
      Span.span "client.deliver" (fun () ->
          List.iter
            (fun (status, seq, payload) ->
              let s = seq land (window - 1) in
              (match status with
              | Rpc_serve.Sok when Bytes.equal payload c.expect.(l.slot_msg.(s)) ->
                  Slicer.ok l.sl (t -. l.slot_t0.(s));
                  if !Span.on then
                    l.payload_bytes <- l.payload_bytes +. float_of_int (Bytes.length payload)
              | _ -> Slicer.fail l.sl);
              (* past the deadline the requests in flight drain untimed *)
              if l.stop () then Slicer.close l.sl
              else begin
                Slicer.boundary l.sl;
                issue l c
              end)
            (Rpc_serve.parse_replies data)))

let new_client st ~frames ~outstanding =
  {
    frames;
    expect = Array.map (fun f -> Bytes.sub f 16 (Bytes.length f - 16)) frames;
    order = Inputs.shuffle st (Array.init (Array.length frames) Fun.id);
    rng = Random.State.split st;
    outstanding;
    pos = 0;
    send = (fun _ -> invalid_arg "not connected");
  }

let make_loop sim clients =
  {
    sim;
    clients;
    slot_msg = Array.make window 0;
    slot_t0 = Array.make window 0.;
    next_seq = 0;
    stop = (fun () -> true);
    sl = Slicer.create ();
    payload_bytes = 0.;
    sampled = ref 0;
  }

(* Every client keeps its requests outstanding until [stop] holds;
   then the requests in flight finish. *)
let run_loop l sl stop =
  l.sl <- sl;
  l.stop <- stop;
  Slicer.start sl;
  Array.iter (fun c -> for _ = 1 to c.outstanding do issue l c done) l.clients;
  Span.span ~keep:true "sim_core.run" (fun () -> Sim_core.run l.sim);
  Slicer.close sl

let drive l sl ~deadline = run_loop l sl (fun () -> now_ns () >= deadline)

(* Warm-up: enough requests that every stub and relay closure passes
   the tier-promotion threshold.  Its failures count with the run's. *)
let warm_up l ~per_client =
  let sl = Slicer.create () in
  let n = l.next_seq + (per_client * Array.length l.clients) in
  run_loop l sl (fun () -> l.next_seq >= n);
  sl

(* The stub layer's traced rows come from the backend's own round
   trips (XDR, the same values) run stand-alone. *)
let stub_probe o ~workload values =
  let combos =
    List.map
      (fun k -> (k, W_marshal.make_combo k ("xdr", Encoding.xdr)))
      W_marshal.kinds
  in
  W_marshal.probe o ~workload
    (Array.of_list
       (List.map
          (fun (kind, v) -> { W_marshal.combo = List.assoc kind combos; args = [| v |]; wire = 0 })
          values))

(* Time inside the simulator that is not a stub call, the handler or
   one of the benchmark's callbacks: the handler and callbacks are
   child spans, stub time is the Obs stub_opt histogram sums that the
   traced phases fill. *)
let sim_self_us (t : traced) =
  let stub =
    Option.value ~default:0. (counter t "stub_opt.encode_ns.sum")
    +. Option.value ~default:0. (counter t "stub_opt.decode_ns.sum")
  in
  (Span.self "sim_core.run" -. stub) /. float_of_int t.traced.Slicer.ok /. 1e3

let sum_stats = function
  | [] -> invalid_arg "sum_stats"
  | (x : Rpc_serve.stats) :: rest ->
      List.fold_left
        (fun (a : Rpc_serve.stats) (b : Rpc_serve.stats) ->
          Rpc_serve.
            {
              a with
              st_frames_in = a.st_frames_in + b.st_frames_in;
              st_accepted = a.st_accepted + b.st_accepted;
              st_shed = a.st_shed + b.st_shed;
              st_bad_request = a.st_bad_request + b.st_bad_request;
              st_unknown_op = a.st_unknown_op + b.st_unknown_op;
              st_ok_replies = a.st_ok_replies + b.st_ok_replies;
              st_flushes = a.st_flushes + b.st_flushes;
              st_coalesced = a.st_coalesced + b.st_coalesced;
              st_killed_conns = a.st_killed_conns + b.st_killed_conns;
              st_in_flight_hw = max a.st_in_flight_hw b.st_in_flight_hw;
            })
        x rest

(* Rpc_serve frame accounting closes: every frame accepted or refused,
   every accepted request answered Ok, no connection killed. *)
let accounting_ok (s : Rpc_serve.stats) ~sent =
  s.Rpc_serve.st_frames_in
  = s.Rpc_serve.st_accepted + s.Rpc_serve.st_shed + s.Rpc_serve.st_bad_request
    + s.Rpc_serve.st_unknown_op
  && s.Rpc_serve.st_ok_replies = s.Rpc_serve.st_accepted
  && s.Rpc_serve.st_frames_in = sent
  && s.Rpc_serve.st_killed_conns = 0

(* Server statistics and simulator events, read around the traced
   phases next to the Obs counters. *)
let server_readings stats sim () =
  let (s : Rpc_serve.stats) = stats () in
  [
    ("rpc_serve.ok_replies", float_of_int s.st_ok_replies);
    ("rpc_serve.frames_in", float_of_int s.st_frames_in);
    ("rpc_serve.flushes", float_of_int s.st_flushes);
    ("rpc_serve.coalesced", float_of_int s.st_coalesced);
    ("rpc_serve.shed", float_of_int s.st_shed);
    ("sim_core.events", float_of_int (Sim_core.events_processed sim));
  ]

let server_rows ~workload (t : traced) (final : Rpc_serve.stats) =
  let row = Cell.row ~workload in
  let t_ops = float_of_int t.traced.Slicer.ok in
  let c name = Option.value ~default:0. (counter t name) in
  let opt name unit_ key =
    match counter t key with
    | Some v -> row name unit_ [ v /. t_ops ]
    | None -> Cell.absent ~workload name unit_
  in
  let ok = Float.max 1. (c "rpc_serve.ok_replies") in
  let handler = Span.acc "rpc_serve.handler" in
  [
    (if handler.Span.calls = 0 then Cell.absent ~workload "rpc_serve.handler_ns" "ns"
     else row "rpc_serve.handler_ns" "ns" [ handler.Span.total /. float_of_int handler.Span.calls ]);
    row "rpc_serve.flushes_per_req" "count" [ c "rpc_serve.flushes" /. ok ];
    row "rpc_serve.coalesced_share" "ratio" [ c "rpc_serve.coalesced" /. ok ];
    row "rpc_serve.shed_share" "ratio" [ c "rpc_serve.shed" /. Float.max 1. (c "rpc_serve.frames_in") ];
    row "rpc_serve.in_flight_hw" "count" [ float_of_int final.Rpc_serve.st_in_flight_hw ];
    opt "sim_core.events_per_req" "count" "sim_core.events";
    opt "link.msgs_per_req" "count" "sim.link.msgs";
    opt "link.bytes_per_req" "B" "sim.link.bytes";
  ]

(* What serve and gateway each supply to [run]. *)
type setup = {
  loop : loop;
  warm : Slicer.t;
  stats : unit -> Rpc_serve.stats;  (** the echo servers', summed *)
  clean : unit -> bool;  (** frame and relay accounting closes *)
}

let run (o : opts) ~workload ~slice_s ~setup_fn ~layer_rows =
  let pool0 = Mbuf.pool_stats () in
  let b, setup = timed_setup o setup_fn in
  let l = b.loop in
  let rows, slicers =
    if not o.traced then begin
      let sl = measure ~slice_s o (drive l) in
      (e2e_rows ~workload ~setup sl, [ sl ])
    end
    else begin
      let t = traced_run ~slice_s ~extra:(server_readings b.stats l.sim) o (drive l) in
      Meter.write_trace o;
      (* rows read from the spans go first: the stand-alone probes in
         [layer_rows] reset them *)
      let common = traced_common_rows ~workload t in
      let counters =
        counter_rows ~workload ~kb:(l.payload_bytes /. 1024.) t @ server_rows ~workload t (b.stats ())
      in
      let sim_self = sim_self_us t in
      (common @ counters @ layer_rows t ~sim_self, [ t.untraced; t.traced ])
    end
  in
  outcome ~workload ~pool0 ~slicers:(b.warm :: slicers) ~oracle_cases:0 ~oracle_failed:0
    ~clean:(b.clean () && accounting_ok (b.stats ()) ~sent:l.next_seq)
    rows

(* ------------------------------------------------------------------ *)
(* serve                                                                *)
(* ------------------------------------------------------------------ *)

let handler_sampled = ref 0

(* The echo service, its handler timed as its own layer. *)
let echo_handler vs =
  Span.sampled handler_sampled (fun () -> Span.span "rpc_serve.handler" (fun () -> vs))

let serve (o : opts) =
  let workload = "serve" in
  let st = Inputs.rng ~seed:o.seed workload in
  let enc = Encoding.xdr in
  (* 200 requests, 64 B - 1 KiB: 70% ints, 20% rects, 10% dirents *)
  let mix = Inputs.[ (Ints, 140); (Rects, 40); (Dirents, 20) ] in
  let ops =
    List.mapi
      (fun i (kind, n) ->
        let ms = Inputs.bench_spec enc kind in
        let spec =
          { (Rpc_serve.echo_op ~iface:1 ~op:(i + 1) ~enc ms) with
            Rpc_serve.os_handler = echo_handler }
        in
        let n = if o.smoke then n / 10 else n in
        (kind, ms, spec, Array.map (fun bytes -> Inputs.payload st kind ~bytes) (Inputs.log_sizes st n 64 1024)))
      mix
  in
  let frames =
    Array.concat
      (List.map
         (fun (_, _, spec, vals) -> Array.map (fun v -> Rpc_serve.request_frame spec ~seq:0 [| v |]) vals)
         ops)
  in
  let setup_fn () =
    let sim = Sim_core.create () in
    let srv =
      Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim) ~egress:(Link.ethernet_100 ~sim) ()
    in
    List.iter (fun (_, _, spec, _) -> Rpc_serve.register srv spec) ops;
    let st = Inputs.rng ~seed:o.seed "serve.order" in
    (* two connections, four requests outstanding on each *)
    let clients = Array.init 2 (fun _ -> new_client st ~frames ~outstanding:4) in
    let l = make_loop sim clients in
    Array.iter
      (fun c -> c.send <- Rpc_serve.send (Rpc_serve.connect srv ~deliver:(deliver l c)))
      clients;
    let warm = warm_up l ~per_client:(4 * (Opt_config.stage_threshold () + 8)) in
    {
      loop = l;
      warm;
      stats = (fun () -> Rpc_serve.stats srv);
      clean = (fun () -> Rpc_serve.in_flight srv = 0);
    }
  in
  let layer_rows _ ~sim_self =
    let dispatch = Cell.row ~workload "rpc_serve.dispatch_self_us" "us" [ sim_self ] in
    let values =
      List.concat_map (fun (kind, _, _, vals) -> List.map (fun v -> (kind, v)) (Array.to_list vals)) ops
    in
    let stubs = stub_probe o ~workload values in
    (dispatch :: stubs)
    @ plan_rows o ~workload (List.map (fun (_, ms, _, _) -> { pi_enc = enc; pi_ms = ms }) ops)
  in
  run o ~workload ~slice_s:0.1 ~setup_fn ~layer_rows

(* ------------------------------------------------------------------ *)
(* gateway                                                              *)
(* ------------------------------------------------------------------ *)

(* xdr->xdr relays by borrowing the receive buffer; cdr->xdr converts
   endianness in fused runs.  msgpack->cbor is left out: it takes the
   materialize fallback, about ten times slower, and would swamp the
   mix. *)
let routes = [ ("xdr-xdr", Encoding.xdr, Encoding.xdr); ("cdr-xdr", Encoding.cdr, Encoding.xdr) ]

type route = {
  r_name : string;
  src : Encoding.t;
  dst : Encoding.t;
  r_ops : (Inputs.kind * int * Paper_fixtures.method_spec * Value.t array) list;
  mutable r_frames : bytes array;
}

let register gw r =
  List.iter (fun (_, op, ms, _) -> Rpc_gateway.register gw ms ~iface:1 ~op) r.r_ops

let gateway (o : opts) =
  let workload = "gateway" in
  let st = Inputs.rng ~seed:o.seed workload in
  (* per route: 16 ints and 16 dirents requests, 4 - 64 KiB *)
  let per_kind = if o.smoke then 4 else 16 in
  let routes =
    List.map
      (fun (r_name, src, dst) ->
        let r_ops =
          List.mapi
            (fun i kind ->
              ( kind,
                i + 1,
                Inputs.bench_spec src kind,
                Array.map (fun bytes -> Inputs.payload st kind ~bytes) (Inputs.log_sizes st per_kind 4096 65536) ))
            Inputs.[ Ints; Dirents ]
        in
        { r_name; src; dst; r_ops; r_frames = [||] })
      routes
  in
  (* request frames are input, built once outside the timed set-up *)
  List.iter
    (fun r ->
      let gw = Rpc_gateway.create ~sim:(Sim_core.create ()) ~src:r.src ~dst:r.dst () in
      register gw r;
      r.r_frames <-
        Array.concat
          (List.map
             (fun (_, op, ms, vals) ->
               Array.map (fun v -> Rpc_gateway.client_frame gw ms ~iface:1 ~op ~seq:0 [| v |]) vals)
             r.r_ops))
    routes;
  let setup_fn () =
    let sim = Sim_core.create () in
    let st = Inputs.rng ~seed:o.seed "gateway.order" in
    let gws = List.map (fun r -> Rpc_gateway.create ~sim ~src:r.src ~dst:r.dst ()) routes in
    List.iter2 register gws routes;
    (* one connection per route, two requests outstanding on each *)
    let clients =
      Array.of_list (List.map (fun r -> new_client st ~frames:r.r_frames ~outstanding:2) routes)
    in
    let l = make_loop sim clients in
    List.iteri
      (fun i gw ->
        let c = clients.(i) in
        c.send <- Rpc_gateway.send (Rpc_gateway.connect gw ~deliver:(deliver l c)))
      gws;
    let warm = warm_up l ~per_client:(2 * (Opt_config.stage_threshold () + 8)) in
    let gstats () = List.map Rpc_gateway.stats gws in
    {
      loop = l;
      warm;
      stats = (fun () -> sum_stats (List.map (fun g -> g.Rpc_gateway.gs_backend) (gstats ())));
      clean =
        (fun () ->
          List.for_all
            (fun (g : Rpc_gateway.stats) ->
              g.gs_relay_errors = 0 && g.gs_pending = 0 && g.gs_killed_conns = 0
              && g.gs_relayed_req = g.gs_requests_in
              && g.gs_relayed_rep = g.gs_requests_in)
            (gstats ()));
    }
  in
  (* Stand-alone relays of the same request payloads through the same
     forward stubs the gateway compiles, per KiB. *)
  let relay_row r =
    let fwds =
      List.concat_map
        (fun (_, _, (ms : Paper_fixtures.method_spec), vals) ->
          let f =
            Stub_forward.compile_forward ~src:r.src ~dst:r.dst ~mint:ms.Paper_fixtures.ms_mint
              ~named:ms.Paper_fixtures.ms_named
              (List.map Stub_opt.to_dplan_droot ms.Paper_fixtures.ms_droots)
              ms.Paper_fixtures.ms_roots
          in
          List.map (fun _ -> f) (Array.to_list vals))
        r.r_ops
      |> Array.of_list
    in
    let payloads = Array.map (fun f -> Bytes.sub f 16 (Bytes.length f - 16)) r.r_frames in
    let w = Mbuf.acquire () in
    let ns = ref 0. and bytes = ref 0. in
    let budget = now_ns () +. probe_ns o in
    while now_ns () < budget do
      Array.iteri
        (fun i p ->
          Mbuf.reset w;
          let rd = Mbuf.reader_of_bytes p in
          let t0 = now_ns () in
          fwds.(i) rd w;
          ns := !ns +. (now_ns () -. t0);
          bytes := !bytes +. float_of_int (Bytes.length p))
        payloads
    done;
    Mbuf.release w;
    Cell.row ~workload ("stub_forward.relay_ns_per_kb." ^ r.r_name) "ns/KB" [ !ns /. !bytes *. 1024. ]
  in
  let layer_rows t ~sim_self =
    let row = Cell.row ~workload in
    let per_req name unit_ key =
      match counter t key with
      | Some v -> row name unit_ [ v /. float_of_int t.traced.Slicer.ok ]
      | None -> Cell.absent ~workload name unit_
    in
    let forward =
      [
        row "rpc_gateway.self_us" "us" [ sim_self ];
        per_req "stub_forward.borrowed_bytes_per_req" "B" "forward.borrowed_bytes";
        per_req "stub_forward.copied_bytes_per_req" "B" "forward.copied_bytes";
        per_req "stub_forward.bswap_bytes_per_req" "B" "forward.bswap_bytes";
        per_req "stub_forward.fused_runs_per_req" "count" "forward.fused_runs";
        per_req "stub_forward.fallback_fields_per_req" "count" "forward.fallback_fields";
      ]
    in
    let relays = List.map relay_row routes in
    let values =
      List.concat_map
        (fun r ->
          List.concat_map (fun (kind, _, _, vals) -> List.map (fun v -> (kind, v)) (Array.to_list vals)) r.r_ops)
        routes
    in
    let stubs = stub_probe o ~workload values in
    let plans =
      List.concat_map
        (fun r ->
          List.concat_map
            (fun (_, _, ms, _) -> [ { pi_enc = r.src; pi_ms = ms }; { pi_enc = r.dst; pi_ms = ms } ])
            r.r_ops)
        routes
    in
    forward @ relays @ stubs @ plan_rows o ~workload plans
  in
  run o ~workload ~slice_s:0.25 ~setup_fn ~layer_rows
