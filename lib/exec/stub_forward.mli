(** Forward stubs: fused decode→encode relaying for gateways.

    A forward stub consumes a [src]-encoded message from a reader and
    emits the same message [dst]-encoded into a writer, executing a
    fused {!Fplan.plan} instead of the decode-then-reencode pair:
    same-encoding runs move as bulk blits (or scatter-gather borrows of
    the receive buffer — zero bytes touched), differing-encoding
    scalars convert in place, and only genuinely reshaped fields
    materialize values through the embedded fallback plans.

    Parity contract: on each buffer separately the engine performs
    exactly what {!Stub_opt}'s decoder does on the source and its
    encoder does on the destination — same reads, masks,
    length/padding conventions, and typed errors ({!Codec.Decode_error}
    / [Mbuf.Short_buffer]).  Relayed output is byte-identical to
    decode-then-reencode; on malformed input both engines fail (the
    exception class may differ when fusion reorders a bounds check, as
    with the decode rewrites — see peephole.mli).  A loop checks its
    count against the source bytes that remain, at its source minimum
    per element, before either side reserves or allocates.

    Observability ({!Obs} counters): [forward.fused_runs] (executed
    fused runs), [forward.borrowed_bytes] / [forward.copied_bytes]
    (payload bytes relayed by reference vs. through memcpy — fixed
    header fields moved inside runs are not payload), and
    [forward.fallback_fields] (materialize executions). *)

type forward = Mbuf.reader -> Mbuf.t -> unit
(** Relay one message: consume it from the reader, emit it into the
    writer.  Raises {!Codec.Decode_error} or [Mbuf.Short_buffer] on
    malformed input; the writer's contents are then unspecified
    (gateways discard the in-progress reply frame). *)

val forward_plan :
  ?config:Opt_config.t ->
  src:Encoding.t ->
  dst:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?sg:bool ->
  ?sg_threshold:int ->
  Dplan_compile.droot list ->
  Plan_compile.root list ->
  Fplan.plan
(** {!Fplan_compile.fuse} followed by the forward pass pipeline
    ({!Pass.run_forward}): move coalescing, then loop collapse to
    counted blits.  This is what [flick dump-plan --forward] prints and
    what the differential tests execute. *)

val forward_of_plan : Fplan.plan -> forward
(** The relay of an already optimized plan: one closure per op, run in
    order. *)

val compile_forward :
  ?config:Opt_config.t ->
  src:Encoding.t ->
  dst:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  Dplan_compile.droot list ->
  Plan_compile.root list ->
  forward
(** The front door: fuse, optimize, and cache {!forward_of_plan}'s
    relay.  Closures are cached under a key covering {e both}
    fingerprints (source message structure + destination encoding
    name), the scatter-gather policy, the pass selection, and the
    fusion enable flag — flipping any of them compiles fresh. *)
