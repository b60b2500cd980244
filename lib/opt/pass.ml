(* The instrumented pass manager over plan programs.

   A pass is a named, byte-preserving transform over an encode
   (Plan_compile.plan) or decode (Dplan.plan) program.  The manager
   runs the selected passes in registration order and instruments each
   one: wall time, node and bounds-check counts before and after, and
   (optionally) the structural verifier.  Traces stream through a
   callback so flick dump-plan --trace-passes and the bench ablations
   can show per-pass deltas without re-deriving them.

   The registered passes are the three rewrite classes of the encode
   peephole engine and the two of the decode engine.  Composing them in
   order reproduces the monolithic Peephole.optimize_plan /
   optimize_dplan output exactly (pinned by test/test_passes.ml):
   coalescing only creates bigger chunks, fusion only consumes
   single-chunk loop bodies coalescing has already normalized, and
   hoisting only fires on loops fusion left behind — the same
   bottom-up order the monolith applies within its single traversal. *)

type trace = {
  tr_side : string;  (** "encode" or "decode" *)
  tr_pass : string;
  tr_round : int;
  tr_nodes_before : int;
  tr_nodes_after : int;
  tr_checks_before : int;
  tr_checks_after : int;
  tr_wall_ns : float;
  tr_verified : bool;
}

type 'p pass = {
  p_name : string;
  p_transform : ?stats:Peephole.stats -> 'p -> 'p;
}

(* Per-program-kind instrumentation hooks. *)
type 'p side = {
  s_name : string;
  s_nodes : 'p -> int;
  s_checks : 'p -> int;
  s_verify : 'p -> (unit, Plan_verify.error) result;
}

exception
  Verify_failed of { side : string; pass : string; error : Plan_verify.error }

let () =
  Printexc.register_printer (function
    | Verify_failed { side; pass; error } ->
        Some
          (Printf.sprintf "Pass.Verify_failed(%s plan after %S: %s)" side pass
             (Plan_verify.error_to_string error))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Registered passes                                                    *)
(* ------------------------------------------------------------------ *)

let plan_totals (p : Plan_compile.plan) count =
  count p.Plan_compile.p_ops
  + List.fold_left
      (fun acc (_, ops) -> acc + count ops)
      0 p.Plan_compile.p_subs

let dplan_totals (p : Dplan.plan) count =
  count p.Dplan.d_ops
  + List.fold_left
      (fun acc (_, f) -> acc + count f.Dplan.f_ops)
      0 p.Dplan.d_subs

let encode_side =
  {
    s_name = "encode";
    s_nodes = (fun p -> plan_totals p Mplan.count_ops);
    s_checks = (fun p -> plan_totals p Mplan.count_checks);
    s_verify = Plan_verify.check_plan;
  }

let decode_side =
  {
    s_name = "decode";
    s_nodes = (fun p -> dplan_totals p Dplan.count_ops);
    s_checks = (fun p -> dplan_totals p Dplan.count_checks);
    s_verify = Plan_verify.check_dplan;
  }

let rw_only ?(narrow = false) ~coalesce ~fuse ~hoist ~dead () =
  {
    Peephole.rw_coalesce = coalesce;
    rw_fuse = fuse;
    rw_hoist = hoist;
    rw_dead = dead;
    rw_narrow = narrow;
  }

(* Dead-op removal rides with coalescing (dropping an [Align 1] between
   two chunks is what lets them merge); the redundant-reservation drop
   rides with fusion (only fusion creates the array op that triggers
   it).  The registration order is load-bearing: see the head comment. *)
let encode_passes =
  [
    {
      (* before chunk-coalesce: folding a constant variable-width
         header into a fixed chunk is what lets coalescing absorb it
         into the surrounding static run in the same round *)
      p_name = "varhead-narrow";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_plan_with
            (rw_only ~narrow:true ~coalesce:false ~fuse:false ~hoist:false
               ~dead:false ())
            ?stats p);
    };
    {
      p_name = "chunk-coalesce";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_plan_with
            (rw_only ~coalesce:true ~fuse:false ~hoist:false ~dead:true ())
            ?stats p);
    };
    {
      p_name = "loop-blit-fusion";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_plan_with
            (rw_only ~coalesce:false ~fuse:true ~hoist:false ~dead:false ())
            ?stats p);
    };
    {
      p_name = "ensure-hoist";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_plan_with
            (rw_only ~coalesce:false ~fuse:false ~hoist:true ~dead:false ())
            ?stats p);
    };
  ]

let decode_passes =
  [
    {
      p_name = "dvarhead-narrow";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_dplan_with
            (rw_only ~narrow:true ~coalesce:false ~fuse:false ~hoist:false
               ~dead:false ())
            ?stats p);
    };
    {
      p_name = "chunk-merge";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_dplan_with
            (rw_only ~coalesce:true ~fuse:false ~hoist:false ~dead:true ())
            ?stats p);
    };
    {
      p_name = "loop-scalar-fusion";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_dplan_with
            (rw_only ~coalesce:false ~fuse:true ~hoist:false ~dead:false ())
            ?stats p);
    };
    {
      p_name = "loop-ensure-hoist";
      p_transform =
        (fun ?stats p ->
          Peephole.optimize_dplan_with
            (rw_only ~coalesce:false ~fuse:false ~hoist:true ~dead:false ())
            ?stats p);
    };
  ]

(* The forward side: fused decode+encode programs for gateway relaying. *)
let forward_side =
  {
    s_name = "forward";
    s_nodes = (fun (p : Fplan.plan) -> Fplan.count_ops p.Fplan.f_ops);
    s_checks = (fun (p : Fplan.plan) -> Fplan.count_checks p.Fplan.f_ops);
    s_verify = Plan_verify.check_fplan;
  }

let forward_passes =
  [
    {
      p_name = "forward-run-coalesce";
      p_transform =
        (fun ?stats (p : Fplan.plan) ->
          { p with Fplan.f_ops = Peephole.forward_coalesce ?stats p.Fplan.f_ops });
    };
  ]

let encode_pass_names = List.map (fun p -> p.p_name) encode_passes
let decode_pass_names = List.map (fun p -> p.p_name) decode_passes
let forward_pass_names = List.map (fun p -> p.p_name) forward_passes
let pass_names = encode_pass_names @ decode_pass_names @ forward_pass_names

let validate (config : Opt_config.t) =
  match config.Opt_config.selection with
  | Opt_config.All | Opt_config.Nothing -> Ok ()
  | Opt_config.Only names -> (
      match List.filter (fun n -> not (List.mem n pass_names)) names with
      | [] -> Ok ()
      | unknown ->
          Error
            (Printf.sprintf "unknown pass%s %s (known: %s)"
               (if List.length unknown > 1 then "es" else "")
               (String.concat ", " unknown)
               (String.concat ", " pass_names)))

(* [Only] honors the caller's order, not registration order: the order
   is fingerprinted into cache keys anyway (differing spellings already
   cache separately), and an explicit list exists to experiment with
   pipelines — including ones that need a later-registered pass to run
   first (see the fixpoint test, where fusion precedes coalescing). *)
let select passes (sel : Opt_config.selection) =
  match sel with
  | Opt_config.All -> passes
  | Opt_config.Nothing -> []
  | Opt_config.Only names ->
      List.filter_map
        (fun n -> List.find_opt (fun p -> p.p_name = n) passes)
        names

(* ------------------------------------------------------------------ *)
(* The runner                                                           *)
(* ------------------------------------------------------------------ *)

let verify_or_raise side pass prog =
  match side.s_verify prog with
  | Ok () -> ()
  | Error error ->
      raise (Verify_failed { side = side.s_name; pass; error })

let max_rounds = 4

(* Iterate the selected pipeline to a fixpoint: one pass can expose
   work for another that already ran this round (chunk-coalesce
   normalizing a loop body that loop-blit-fusion then consumes), so the
   whole sequence repeats until a round records zero Peephole rewrites,
   bounded by [max_rounds] against a rewrite ping-pong.

   Trace policy: round 1 streams unconditionally; a later round's rows
   are flushed only when that round actually rewrote something.  A
   pipeline that converges immediately therefore traces exactly as the
   single-round manager did, and extra rounds show up as extra rows
   (tagged [tr_round]) only when they earned their keep. *)
let run ?config ?stats ?on_trace side passes prog =
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let verify = config.Opt_config.verify in
  let selected = select passes config.Opt_config.selection in
  (* check the compiler's own output before any pass touches it *)
  if verify then verify_or_raise side "<compile>" prog;
  (* one stats record threads through every round: the caller sees the
     grand total, the runner reads per-round deltas off it *)
  let st =
    match stats with Some s -> s | None -> Peephole.fresh_stats ()
  in
  let rec rounds round prog =
    let rewrites_before = Peephole.rewrites st in
    let buffered = ref [] in
    let prog' =
      List.fold_left
        (fun prog pass ->
          let nodes_before = side.s_nodes prog
          and checks_before = side.s_checks prog in
          let sp =
            Obs_trace.enter ~cat:"opt"
              ~args:
                [ ("side", side.s_name); ("round", string_of_int round) ]
              ("pass:" ^ pass.p_name)
          in
          let t0 = Obs.now_ns () in
          let prog' = pass.p_transform ~stats:st prog in
          let wall_ns = Obs.now_ns () -. t0 in
          Obs_trace.leave sp;
          if verify then verify_or_raise side pass.p_name prog';
          (match on_trace with
          | None -> ()
          | Some _ ->
              buffered :=
                {
                  tr_side = side.s_name;
                  tr_pass = pass.p_name;
                  tr_round = round;
                  tr_nodes_before = nodes_before;
                  tr_nodes_after = side.s_nodes prog';
                  tr_checks_before = checks_before;
                  tr_checks_after = side.s_checks prog';
                  tr_wall_ns = wall_ns;
                  tr_verified = verify;
                }
                :: !buffered);
          prog')
        prog selected
    in
    let rewrote = Peephole.rewrites st - rewrites_before in
    if round = 1 || rewrote > 0 then (
      match on_trace with
      | None -> ()
      | Some f -> List.iter f (List.rev !buffered));
    if rewrote > 0 && round < max_rounds then rounds (round + 1) prog'
    else prog'
  in
  rounds 1 prog

let run_encode ?config ?stats ?on_trace plan =
  run ?config ?stats ?on_trace encode_side encode_passes plan

let run_decode ?config ?stats ?on_trace plan =
  run ?config ?stats ?on_trace decode_side decode_passes plan

let run_forward ?config ?stats ?on_trace plan =
  run ?config ?stats ?on_trace forward_side forward_passes plan
