(** The optimized stub engine: executes the marshal plans produced by
    {!Plan_compile}, embodying the same optimization decisions the C
    back ends print (one capacity check per chunk, static-offset stores,
    blits for byte runs, tight scalar-array loops, call-free inlined
    control flow except at recursive types).

    This engine stands in for running Flick-generated C stubs on the
    paper's testbed; the rpcgen-style ({!Stub_naive}) and interpretive
    ({!Stub_interp}) engines stand in for the compilers Flick was
    measured against.  All three produce byte-identical messages. *)

type encoder = Mbuf.t -> Value.t array -> unit
(** Marshal the given parameter values into the buffer (appending at the
    current position). *)

type decoder = Mbuf.reader -> Value.t array
(** Unmarshal one message body, returning one value per
    {!Plan_compile.root.Rvalue}/[Dvalue] root.  Raises
    {!Mbuf.Short_buffer} or {!Codec.Decode_error} on malformed input. *)

val instrument_encoder : Obs.hist -> Obs.hist -> encoder -> encoder
(** [instrument_encoder ns bytes e]: when {!Obs.timing_enabled}, each
    call observes its latency into [ns] and its produced message bytes
    into [bytes]; when the gate is off the wrapper costs one load and
    branch.  Shared with {!Stub_naive}, which wraps its own histograms
    around the same helper. *)

val instrument_decoder : Obs.hist -> Obs.hist -> decoder -> decoder
(** Decode-side twin of {!instrument_encoder}: latency plus consumed
    wire bytes. *)

(** Decoder-side description of a message body, mirroring
    {!Plan_compile.root}. *)
type droot =
  | Dconst_int of int64 * Encoding.atom_kind
      (** verify a constant discriminator *)
  | Dconst_str of string
  | Dvalue of Mint.idx * Pres.t

val to_dplan_droot : droot -> Dplan_compile.droot
(** The plan-compiler spelling of a decode root ({!Stub_forward} keys
    fused relays off the same roots the decoder compiles from). *)

val compile_encoder :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  Plan_compile.root list ->
  encoder
(** Compile (through the shared {!Plan_cache}) and memoize:
    structurally identical requests reuse one encoder closure.  Encoders
    carry no per-call state, so sharing is safe under any call
    pattern.  The closure is {!encoder_of_plan}'s from the first call
    on; each call also counts under the [stage.staged_calls] counter,
    which the end-to-end benchmark still reads. *)

val compile_decoder :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?views:bool ->
  droot list ->
  decoder
(** Compile through the shared {!Plan_cache.dplan} and memoize: structurally
    identical messages reuse one decoder closure.  A cached decoder
    raises the same typed errors as a fresh one and keeps no state
    across messages.  [views:true] (default false) enables zero-copy
    decode: string/byte-sequence payloads at or above
    {!Mbuf.borrow_threshold} come back as [Value.Vstring_view] /
    [Vbytes_view] aliasing the receive buffer — see the [Mbuf] aliasing
    contract and {!Value.materialize}. *)

val encoder_of_plan :
  enc:Encoding.t -> Plan_compile.plan -> encoder
(** Lower-level entry: execute an already compiled plan (used by the
    ablation benchmarks, which tweak plans).  Each op becomes one
    closure, and each op list one flat call sequence.  A chunk reserves
    once, zero-fills its gaps, writes byte-adjacent constants as one
    precomputed image, stores the 4-byte integer fields of one
    aggregate through one in-window call, stores every other item at
    its constant offset, and advances once. *)

val decoder_of_dplan :
  enc:Encoding.t -> Dplan.plan -> decoder
(** Lower-level entry: compile an already built decode plan (used by
    the ablation benchmarks, which tweak plans).  Each frame becomes
    one closure that decodes straight to its value, built as
    {!Dplan.frame_build} says; only a slot frame fills a per-call slot
    array first.  A loop checks its count against the bytes that
    remain, at its hoisted reservation or else its stamped element
    minimum ([elem_min], {!Plan_compile.size}), before it allocates. *)
