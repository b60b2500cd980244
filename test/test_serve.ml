(* The server loop under test, three ways:

   1. Differential: random interleavings across 1-64 connections must
      produce, for every request, a reply byte-identical to the one a
      single-connection sequential server gives for the same request —
      and below the backpressure threshold no request may be dropped or
      shed (>= 500 random cases per encoding).

   2. Fault injection: a connection dying mid-request, a truncated
      body, a garbage or oversized length prefix, and an unknown
      interface id each produce a pinned Diag-formatted error or an
      explicit reject reply, never poison other connections, and leak
      no pooled writers (Mbuf pool outstanding counts return to
      baseline around every scenario).

   3. Plan-cache churn: interleaved lookups across many interfaces keep
      the hits/misses/entries/evictions/resets counters consistent with
      a shadow model of the drop-the-table overflow policy. *)

module Q = QCheck

(* Memoized: deriving the presentation and method spec is far too
   expensive to redo per generated request. *)
let spec_table : (string * string, Rpc_serve.op_spec) Hashtbl.t =
  Hashtbl.create 16

let spec_for enc payload =
  let op = Paper_fixtures.op_of_payload payload in
  match Hashtbl.find_opt spec_table (enc.Encoding.name, op) with
  | Some s -> s
  | None ->
      let style =
        match enc.Encoding.name with
        | "cdr" -> `Corba
        | "xdr" -> `Rpcgen
        | _ -> `Fluke
      in
      let pc = Paper_fixtures.bench_presc style in
      let ms = Paper_fixtures.request_spec pc ~op in
      let opno =
        match payload with `Ints -> 1 | `Rects -> 2 | `Dirents -> 3
      in
      let s = Rpc_serve.echo_op ~iface:1 ~op:opno ~enc ms in
      Hashtbl.add spec_table (enc.Encoding.name, op) s;
      s

let register_all t enc =
  List.iter
    (fun p -> Rpc_serve.register t (spec_for enc p))
    [ `Ints; `Rects; `Dirents ]

(* One logical request of a random case. *)
type req = {
  r_conn : int;
  r_seq : int;
  r_payload : [ `Ints | `Rects | `Dirents ];
  r_bytes : int;
  r_at : float;  (* virtual send time in the concurrent run *)
}

type case = { k_conns : int; k_reqs : req list }

let case_gen =
  let open Q.Gen in
  let* conns =
    frequency
      [ (6, int_range 1 8); (3, int_range 9 24); (1, int_range 25 64) ]
  in
  let* per_conn =
    list_repeat conns
      (let* n = int_range 1 3 in
       list_repeat n
         (let* payload =
            frequency [ (3, return `Ints); (2, return `Rects); (1, return `Dirents) ]
          in
          let* bytes = int_range 8 400 in
          let* at_us = int_range 0 500 in
          return (payload, bytes, float_of_int at_us *. 1e-6)))
  in
  let reqs =
    List.concat
      (List.mapi
         (fun cid reqs ->
           List.mapi
             (fun i (payload, bytes, at) ->
               {
                 r_conn = cid;
                 r_seq = (cid * 10_000) + i;
                 r_payload = payload;
                 r_bytes = bytes;
                 r_at = at;
               })
             reqs)
         per_conn)
  in
  return { k_conns = conns; k_reqs = reqs }

let case_print c =
  Printf.sprintf "{conns=%d; reqs=[%s]}" c.k_conns
    (String.concat "; "
       (List.map
          (fun r ->
            Printf.sprintf "c%d seq%d %s %dB @%.0fus" r.r_conn r.r_seq
              (match r.r_payload with
              | `Ints -> "ints"
              | `Rects -> "rects"
              | `Dirents -> "dirents")
              r.r_bytes (r.r_at *. 1e6))
          c.k_reqs))

let arbitrary_case = Q.make ~print:case_print case_gen

(* Collect every reply of a run into seq -> (status, payload). *)
let run_case enc (case : case) ~conns ~max_in_flight ~sequential =
  let sim = Sim_core.create () in
  let ingress = Link.ethernet_100 ~sim in
  let egress = Link.ethernet_100 ~sim in
  let config = { Rpc_serve.default_config with Rpc_serve.max_in_flight } in
  let t = Rpc_serve.create ~sim ~config ~ingress ~egress () in
  register_all t enc;
  let replies = Hashtbl.create 64 in
  let on_flush data =
    List.iter
      (fun (status, seq, payload) ->
        if Hashtbl.mem replies seq then
          Q.Test.fail_reportf "duplicate reply for seq %d" seq;
        Hashtbl.add replies seq (status, payload))
      (Rpc_serve.parse_replies data)
  in
  let cs =
    Array.init conns (fun _ -> Rpc_serve.connect t ~deliver:on_flush)
  in
  List.iteri
    (fun i r ->
      let spec = spec_for enc r.r_payload in
      let vals = [| Paper_fixtures.payload r.r_payload ~bytes:r.r_bytes |] in
      let frame = Rpc_serve.request_frame spec ~seq:r.r_seq vals in
      if sequential then
        (* one connection, strictly one frame at a time: spaced far
           beyond worst-case service + flush + wire *)
        Sim_core.schedule sim
          ~delay:(float_of_int i *. 10e-3)
          (fun () -> Rpc_serve.send cs.(0) frame)
      else
        Sim_core.schedule sim ~delay:r.r_at (fun () ->
            Rpc_serve.send cs.(r.r_conn mod conns) frame))
    case.k_reqs;
  Sim_core.run sim;
  (replies, Rpc_serve.stats t)

let differential_prop enc (case : case) =
  let total = List.length case.k_reqs in
  (* budget >= total outstanding: below the backpressure threshold,
     nothing may be shed or dropped *)
  let concurrent, cstats =
    run_case enc case ~conns:case.k_conns ~max_in_flight:total ~sequential:false
  in
  let baseline, bstats =
    run_case enc case ~conns:1 ~max_in_flight:total ~sequential:true
  in
  if cstats.Rpc_serve.st_shed <> 0 then
    Q.Test.fail_reportf "shed %d below the backpressure threshold"
      cstats.Rpc_serve.st_shed;
  if bstats.Rpc_serve.st_shed <> 0 then
    Q.Test.fail_reportf "sequential baseline shed %d" bstats.Rpc_serve.st_shed;
  if Hashtbl.length concurrent <> total then
    Q.Test.fail_reportf "%d of %d requests answered (silent drop)"
      (Hashtbl.length concurrent) total;
  if Hashtbl.length baseline <> total then
    Q.Test.fail_reportf "baseline answered %d of %d" (Hashtbl.length baseline)
      total;
  List.iter
    (fun r ->
      let cstatus, cpl = Hashtbl.find concurrent r.r_seq in
      let bstatus, bpl = Hashtbl.find baseline r.r_seq in
      if cstatus <> Rpc_serve.Sok then
        Q.Test.fail_reportf "seq %d: concurrent status %d, want Ok" r.r_seq
          (Rpc_serve.status_code cstatus);
      if bstatus <> Rpc_serve.Sok then
        Q.Test.fail_reportf "seq %d: baseline status %d, want Ok" r.r_seq
          (Rpc_serve.status_code bstatus);
      if not (Bytes.equal cpl bpl) then
        Q.Test.fail_reportf
          "seq %d: concurrent reply differs from sequential baseline (%d vs \
           %d bytes)"
          r.r_seq (Bytes.length cpl) (Bytes.length bpl))
    case.k_reqs;
  true

let differential_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (Q.Test.make
           ~name:
             (Printf.sprintf "concurrent replies = sequential baseline (%s)"
                enc.Encoding.name)
           ~count:500 arbitrary_case (differential_prop enc)))
    [ Encoding.xdr; Encoding.cdr; Encoding.mach3 ]

(* -- fault injection ----------------------------------------------- *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Every scenario must leave the writer/reader pools where it found
   them: a leaked pooled buffer shows up as an outstanding delta. *)
let with_pool_check f =
  let before = Mbuf.pool_stats () in
  let r = f () in
  let after = Mbuf.pool_stats () in
  checki "pooled writers outstanding unchanged"
    before.Mbuf.writers_outstanding after.Mbuf.writers_outstanding;
  checki "pooled readers outstanding unchanged"
    before.Mbuf.readers_outstanding after.Mbuf.readers_outstanding;
  r

let make_server () =
  let sim = Sim_core.create () in
  let ingress = Link.ethernet_100 ~sim in
  let egress = Link.ethernet_100 ~sim in
  let t = Rpc_serve.create ~sim ~ingress ~egress () in
  register_all t Encoding.xdr;
  (sim, t)

let ints_frame ~seq ~bytes =
  let spec = spec_for Encoding.xdr `Ints in
  Rpc_serve.request_frame spec ~seq [| Paper_fixtures.payload `Ints ~bytes |]

let replies_of cell =
  match !cell with None -> [] | Some data -> Rpc_serve.parse_replies data

let test_unknown_interface () =
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let got = ref None in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := Some d) in
      let frame = ints_frame ~seq:5 ~bytes:64 in
      Bytes.set_int32_be frame 4 9l; (* iface 9: not registered *)
      Rpc_serve.feed c frame;
      Sim_core.run sim;
      (match replies_of got with
      | [ (Rpc_serve.Sunknown_op, 5, pl) ] ->
          checki "reject reply carries no payload" 0 (Bytes.length pl)
      | _ -> Alcotest.fail "expected exactly one Sunknown_op reply");
      check
        Alcotest.(list string)
        "pinned diag"
        [ "<unknown>: error: serve: connection 0: unknown operation (iface \
           9, op 1)" ]
        (Rpc_serve.diags t);
      let st = Rpc_serve.stats t in
      checki "counted as unknown_op" 1 st.Rpc_serve.st_unknown_op;
      checki "connection not killed" 0 st.Rpc_serve.st_killed_conns)

(* A rects echo: the request decodes to integer rows, the handler gets
   them as they are, and the reply encodes from them the bytes
   Stub_naive writes for the rects that were sent. *)
let test_rects_echo () =
  with_pool_check (fun () ->
      List.iter
        (fun enc ->
          let sim = Sim_core.create () in
          let t =
            Rpc_serve.create ~sim ~ingress:(Link.ethernet_100 ~sim)
              ~egress:(Link.ethernet_100 ~sim) ()
          in
          let spec = spec_for enc `Rects and seen = ref [||] in
          Rpc_serve.register t
            { spec with Rpc_serve.os_handler = (fun vs -> seen := vs; vs) };
          let got = ref None in
          let c = Rpc_serve.connect t ~deliver:(fun d -> got := Some d) in
          let rects = [| Paper_fixtures.payload `Rects ~bytes:160 |] in
          Rpc_serve.feed c (Rpc_serve.request_frame spec ~seq:7 rects);
          Sim_core.run sim;
          let name = enc.Encoding.name in
          checkb (name ^ ": the handler gets rows") true
            (match !seen with [| Value.Vint_rows _ as v |] -> Value.equal v rects.(0) | _ -> false);
          let naive = Mbuf.create 256 in
          Stub_naive.compile_encoder ~enc ~mint:spec.Rpc_serve.os_mint
            ~named:spec.Rpc_serve.os_named spec.Rpc_serve.os_reply_roots naive rects;
          match replies_of got with
          | [ (Rpc_serve.Sok, 7, pl) ] ->
              checkb (name ^ ": reply = Stub_naive's bytes") true
                (Bytes.equal pl (Mbuf.contents naive))
          | _ -> Alcotest.failf "%s: expected one Ok reply" name)
        [ Encoding.xdr; Encoding.cdr; Encoding.mach3; Encoding.msgpack ])

(* Run [f] with the request recorder live (sampling everything into a
   small ring) and leave it disabled and empty afterwards — the fault
   tests pin that kill/close paths flush their records into the flight
   ring before discarding connection state. *)
let with_recorder f =
  Obs_request.configure ~ring_capacity:64 ~sample_every:1 ();
  Obs_request.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs_request.set_enabled false;
      Obs_request.reset_metrics ();
      Obs_request.configure ~ring_capacity:256 ~sample_every:1 ())
    f

let ring_pin () =
  List.map
    (fun r ->
      (Obs_request.outcome_name (Obs_request.outcome r), Obs_request.seq r))
    (Obs_request.ring_records ())

let test_bad_length_prefix () =
  with_recorder @@ fun () ->
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let got_bad = ref None and got_ok = ref None in
      let bad = Rpc_serve.connect t ~deliver:(fun d -> got_bad := Some d) in
      let ok = Rpc_serve.connect t ~deliver:(fun d -> got_ok := Some d) in
      (* oversized: length prefix way past max_frame *)
      let garbage = Bytes.create 4 in
      Bytes.set_int32_be garbage 0 0x7fffffffl;
      Rpc_serve.feed bad garbage;
      check
        Alcotest.(list (pair string int))
        "the kill left a flight-ring marker before any request existed"
        [ ("killed_conn", -1) ]
        (ring_pin ());
      (* the other connection must be unaffected *)
      Rpc_serve.feed ok (ints_frame ~seq:1 ~bytes:64);
      Sim_core.run sim;
      checkb "killed connection got no reply" true (!got_bad = None);
      (match replies_of got_ok with
      | [ (Rpc_serve.Sok, 1, _) ] -> ()
      | _ -> Alcotest.fail "healthy connection should still get its reply");
      check
        Alcotest.(list string)
        "pinned diag"
        [ "<unknown>: error: serve: connection 0: bad frame length \
           2147483647 (min 12, max 1048576)" ]
        (Rpc_serve.diags t);
      checki "one killed connection" 1
        (Rpc_serve.stats t).Rpc_serve.st_killed_conns;
      (* frames after death are ignored, without new diags *)
      Rpc_serve.feed bad (ints_frame ~seq:2 ~bytes:64);
      Sim_core.run sim;
      checki "dead connection stays dead" 1 (List.length (Rpc_serve.diags t));
      check
        Alcotest.(list (pair string int))
        "ring: the kill marker, then the healthy request"
        [ ("killed_conn", -1); ("ok", 1) ]
        (ring_pin ()))

let test_undersized_length_prefix () =
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let c = Rpc_serve.connect t ~deliver:(fun _ -> ()) in
      let garbage = Bytes.create 4 in
      Bytes.set_int32_be garbage 0 3l; (* below the 12-byte header *)
      Rpc_serve.feed c garbage;
      Sim_core.run sim;
      check
        Alcotest.(list string)
        "pinned diag"
        [ "<unknown>: error: serve: connection 0: bad frame length 3 (min \
           12, max 1048576)" ]
        (Rpc_serve.diags t))

let test_death_mid_request () =
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let got = ref None in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := Some d) in
      let frame = ints_frame ~seq:3 ~bytes:128 in
      (* half the frame arrives, then the client dies *)
      Rpc_serve.feed c (Bytes.sub frame 0 (Bytes.length frame / 2));
      Rpc_serve.close_conn c;
      Sim_core.run sim;
      checkb "no reply for a half frame" true (!got = None);
      check
        Alcotest.(list string)
        "pinned diag"
        [ Printf.sprintf
            "<unknown>: error: serve: connection 0 closed mid-frame (%d \
             buffered bytes discarded)"
            (Bytes.length frame / 2) ]
        (Rpc_serve.diags t);
      let st = Rpc_serve.stats t in
      checki "nothing accepted" 0 st.Rpc_serve.st_accepted)

let test_truncated_body () =
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let got = ref [] in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := !got @ [ d ]) in
      let frame = ints_frame ~seq:4 ~bytes:256 in
      (* well-framed garbage: drop the payload tail and re-stamp the
         length so the frame parses but the decoder hits Short_buffer *)
      let cut = Bytes.length frame - 100 in
      let short = Bytes.sub frame 0 cut in
      Bytes.set_int32_be short 0 (Int32.of_int (cut - 4));
      Rpc_serve.feed c short;
      Sim_core.run sim;
      (match List.concat_map Rpc_serve.parse_replies !got with
      | [ (Rpc_serve.Sbad_request, 4, _) ] -> ()
      | _ -> Alcotest.fail "expected exactly one Sbad_request reply");
      check
        Alcotest.(list string)
        "pinned diag"
        [ Printf.sprintf
            "<unknown>: error: serve: connection 0: undecodable send_ints \
             request (seq 4, %d bytes)"
            (cut - 16) ]
        (Rpc_serve.diags t);
      (* the connection is not poisoned: a good request still works *)
      got := [];
      Rpc_serve.feed c (ints_frame ~seq:5 ~bytes:64);
      Sim_core.run sim;
      (match List.concat_map Rpc_serve.parse_replies !got with
      | [ (Rpc_serve.Sok, 5, _) ] -> ()
      | _ -> Alcotest.fail "connection should recover after a bad body"))

let test_death_with_pending_reply () =
  with_recorder @@ fun () ->
  with_pool_check (fun () ->
      let sim, t = make_server () in
      let got = ref None in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := Some d) in
      Rpc_serve.feed c (ints_frame ~seq:6 ~bytes:64);
      (* run past service completion (reply queued, flush armed) but
         not past the flush delay, then kill the connection *)
      Sim_core.run_until sim 180e-6;
      checki "service finished" 0 (Rpc_serve.in_flight t);
      Rpc_serve.close_conn c;
      Sim_core.run sim;
      checkb "queued reply was dropped" true (!got = None);
      checki "drop accounted" 1 (Rpc_serve.stats t).Rpc_serve.st_dropped_replies;
      (* the close flushed the queued reply's record into the ring *)
      check
        Alcotest.(list (pair string int))
        "pending reply's record reaches the ring on close"
        [ ("dropped", 6) ]
        (ring_pin ()))

let test_shed_reply () =
  with_pool_check (fun () ->
      let sim = Sim_core.create () in
      let ingress = Link.ethernet_100 ~sim in
      let egress = Link.ethernet_100 ~sim in
      let config = { Rpc_serve.default_config with Rpc_serve.max_in_flight = 1 } in
      let t = Rpc_serve.create ~sim ~config ~ingress ~egress () in
      register_all t Encoding.xdr;
      let got = ref [] in
      let c = Rpc_serve.connect t ~deliver:(fun d -> got := !got @ [ d ]) in
      Rpc_serve.feed c (ints_frame ~seq:7 ~bytes:64);
      Rpc_serve.feed c (ints_frame ~seq:8 ~bytes:64);
      Sim_core.run sim;
      let replies =
        List.concat_map Rpc_serve.parse_replies !got
        |> List.map (fun (st, seq, _) -> (Rpc_serve.status_code st, seq))
        |> List.sort compare
      in
      check
        Alcotest.(list (pair int int))
        "first accepted, second shed with an explicit reject"
        [ (Rpc_serve.status_code Rpc_serve.Sok, 7);
          (Rpc_serve.status_code Rpc_serve.Sshed, 8) ]
        replies;
      let st = Rpc_serve.stats t in
      checki "shed counted" 1 st.Rpc_serve.st_shed;
      checki "budget never exceeded" 1 st.Rpc_serve.st_in_flight_hw)

(* -- fairness: per-connection share of the budget ------------------ *)

(* One hog pipelines a 16-request burst while four peers each want one
   request.  Uncapped, the burst fits the global budget and owns the
   serial CPU queue, so the peers wait behind all of it; with a
   per-connection cap of 4 the hog is shed down to its share while
   global slots remain (counted under st_shed_per_conn) and every peer
   round-trips strictly sooner.  All time is virtual, so the latency
   comparison is exact. *)
let run_hog_case ~cap =
  let sim = Sim_core.create () in
  let ingress = Link.ethernet_100 ~sim in
  let egress = Link.ethernet_100 ~sim in
  let config =
    {
      Rpc_serve.default_config with
      Rpc_serve.max_in_flight = 16;
      max_in_flight_per_conn = cap;
    }
  in
  let t = Rpc_serve.create ~sim ~config ~ingress ~egress () in
  register_all t Encoding.xdr;
  let hog_ok = ref 0 and hog_shed = ref 0 in
  let hog =
    Rpc_serve.connect t ~deliver:(fun d ->
        List.iter
          (fun (st, _, _) ->
            match st with
            | Rpc_serve.Sok -> incr hog_ok
            | Rpc_serve.Sshed -> incr hog_shed
            | _ -> ())
          (Rpc_serve.parse_replies d))
  in
  Sim_core.schedule sim ~delay:0. (fun () ->
      for i = 0 to 15 do
        Rpc_serve.send hog (ints_frame ~seq:i ~bytes:1024)
      done);
  let peer_lat = ref [] in
  for p = 0 to 3 do
    let sent = ref 0. in
    let c =
      Rpc_serve.connect t ~deliver:(fun d ->
          List.iter
            (fun (st, _, _) ->
              if st = Rpc_serve.Sok then
                peer_lat := (Sim_core.now sim -. !sent) :: !peer_lat)
            (Rpc_serve.parse_replies d))
    in
    Sim_core.schedule sim
      ~delay:(1e-3 +. (float_of_int p *. 20e-6))
      (fun () ->
        sent := Sim_core.now sim;
        Rpc_serve.send c (ints_frame ~seq:(100 + p) ~bytes:1024))
  done;
  Sim_core.run sim;
  (Rpc_serve.stats t, !hog_ok, !hog_shed, !peer_lat)

let test_fairness_hog_vs_peers () =
  with_pool_check (fun () ->
      let st_cap, ok_cap, shed_cap, lat_cap = run_hog_case ~cap:(Some 4) in
      let st_none, ok_none, shed_none, lat_none = run_hog_case ~cap:None in
      checki "four peers answered (capped)" 4 (List.length lat_cap);
      checki "four peers answered (uncapped)" 4 (List.length lat_none);
      (* uncapped: the burst fits the global budget, nothing sheds *)
      checki "uncapped run sheds nothing" 0 st_none.Rpc_serve.st_shed;
      checki "uncapped fairness counter stays zero" 0
        st_none.Rpc_serve.st_shed_per_conn;
      checki "uncapped hog completes everything" 16 ok_none;
      checki "uncapped hog saw no shed replies" 0 shed_none;
      (* capped: the hog is shed down to its share with room to spare *)
      checkb "hog shed by the fairness cap" true (shed_cap > 0);
      checki "every shed happened with global slots free"
        st_cap.Rpc_serve.st_shed st_cap.Rpc_serve.st_shed_per_conn;
      checki "hog's accepted requests all complete" (16 - shed_cap) ok_cap;
      checkb "in-flight high water respects hog share + peers" true
        (st_cap.Rpc_serve.st_in_flight_hw <= 8);
      let worst l = List.fold_left Float.max 0. l in
      checkb "peers round-trip strictly sooner under the cap" true
        (worst lat_cap < worst lat_none))

(* -- plan-cache churn ---------------------------------------------- *)

(* Shadow-model the cache policy (hit; or miss, with the whole table
   dropped when full) over an interleaved key pattern and require the
   real counters to match exactly. *)
let test_cache_churn_counters () =
  let max_entries = 8 in
  let cache = Plan_cache.create ~name:"test.serve.churn" ~max_entries () in
  let model = Hashtbl.create 16 in
  let hits = ref 0
  and misses = ref 0
  and evictions = ref 0
  and resets = ref 0 in
  let lookups = ref 0 in
  for round = 0 to 9 do
    for k = 0 to 19 do
      (* interleave: a hot working set of 4 plus a rotating tail *)
      let key =
        if k mod 2 = 0 then Printf.sprintf "hot-%d" (k mod 4)
        else Printf.sprintf "iface-%d-%d" round k
      in
      incr lookups;
      if Hashtbl.mem model key then incr hits
      else begin
        incr misses;
        if Hashtbl.length model >= max_entries then begin
          evictions := !evictions + Hashtbl.length model;
          incr resets;
          Hashtbl.reset model
        end;
        Hashtbl.add model key ()
      end;
      ignore (Plan_cache.find_or_add cache key (fun () -> key))
    done
  done;
  let st = Plan_cache.cache_stats cache in
  checki "hits" !hits st.Plan_cache.hits;
  checki "misses" !misses st.Plan_cache.misses;
  checki "entries" (Hashtbl.length model) st.Plan_cache.entries;
  checki "evictions" !evictions st.Plan_cache.evictions;
  checki "resets" !resets st.Plan_cache.resets;
  checki "every lookup is a hit or a miss" !lookups
    (st.Plan_cache.hits + st.Plan_cache.misses);
  check (Alcotest.float 1e-9) "hit rate sees only real lookups"
    (float_of_int !hits /. float_of_int !lookups)
    (Plan_cache.hit_rate st);
  checkb "the pattern actually overflowed" true (st.Plan_cache.resets > 0)

(* The server's hot path reuses compiled closures: registering the same
   interface again must come back from the cache, not recompile. *)
let test_cache_hot_path () =
  let spec = spec_for Encoding.xdr `Rects in
  let compile () =
    Stub_opt.compile_encoder ~enc:spec.Rpc_serve.os_enc
      ~mint:spec.Rpc_serve.os_mint ~named:spec.Rpc_serve.os_named
      spec.Rpc_serve.os_reply_roots
  in
  let e1 = compile () in
  let hits_before =
    List.fold_left
      (fun acc (_, s) -> acc + s.Plan_cache.hits)
      0 (Plan_cache.all_stats ())
  in
  let e2 = compile () in
  let hits_after =
    List.fold_left
      (fun acc (_, s) -> acc + s.Plan_cache.hits)
      0 (Plan_cache.all_stats ())
  in
  checkb "second compile is a cache hit" true (hits_after > hits_before);
  checkb "same closure comes back" true (e1 == e2)

(* The built-in serve workload answers every request with the bytes of
   the sequential baseline and returns every pooled buffer. *)
let test_workload_pools () =
  with_pool_check (fun () ->
      let sp = Rpc_serve.run_workload ~requests_per_conn:25 ~conns:4 () in
      checkb "every reply byte-identical" true sp.Rpc_serve.sp_diff_ok)

let suite =
  [
    ( "serve.differential",
      differential_tests
      @ [
          Alcotest.test_case "workload returns every pooled buffer" `Quick
            test_workload_pools;
          Alcotest.test_case "shed reply below budget 1" `Quick test_shed_reply;
          Alcotest.test_case "per-connection fairness: hog vs peers" `Quick
            test_fairness_hog_vs_peers;
        ] );
    ( "serve.faults",
      [
        Alcotest.test_case "unknown interface id" `Quick test_unknown_interface;
        Alcotest.test_case "rects echo from integer rows" `Quick test_rects_echo;
        Alcotest.test_case "oversized length prefix" `Quick
          test_bad_length_prefix;
        Alcotest.test_case "undersized length prefix" `Quick
          test_undersized_length_prefix;
        Alcotest.test_case "connection dies mid-request" `Quick
          test_death_mid_request;
        Alcotest.test_case "truncated body" `Quick test_truncated_body;
        Alcotest.test_case "connection dies with reply pending" `Quick
          test_death_with_pending_reply;
      ] );
    ( "serve.plan_cache",
      [
        Alcotest.test_case "churn counters match the shadow model" `Quick
          test_cache_churn_counters;
        Alcotest.test_case "hot path reuses cached closures" `Quick
          test_cache_hot_path;
      ] );
  ]
