(** The optimizing unmarshal-plan compiler: decode mirror of
    {!Plan_compile}.

    Lowers (MINT, PRES, encoding) triples into {!Dplan} programs using
    the same congruence-based static position tracking (position ≡
    [aoff] mod [abase]) as the encode side, so XDR's 4-byte padding
    discipline survives across variable-length data and consecutive
    loads — including Mach typed-header skips and alignment gaps —
    coalesce into chunks with one bounds check each.  Where the
    congruence is lost (CDR strings, union arms, loop bodies) a dynamic
    {!Dplan.dop.D_align} re-aligns at runtime, exactly where hand-written
    stubs must.

    The compiled plan reads byte-for-byte the same wire positions as
    the rpcgen-style decoder ([Stub_naive]); the differential tests in
    [test/test_decplan.ml] pin that equivalence per encoding. *)

type droot =
  | Dconst_int of int64 * Encoding.atom_kind
      (** verify a constant discriminator word (procedure number) *)
  | Dconst_str of string
      (** verify a constant counted-string key (GIOP operation name) *)
  | Dvalue of Mint.idx * Pres.t  (** decode one output value *)

val compile :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?start:int * int ->
  ?chunked:bool ->
  ?views:bool ->
  ?view_threshold:int ->
  droot list ->
  Dplan.plan
(** [compile ~enc ~mint ~named droots] produces the unmarshal plan for
    one message body.  [start] is the alignment congruence of the first
    byte (default [(8, 0)]).  [chunked:false] flushes after every load
    — the ablation that models a traditional per-datum stub.
    [views:true] marks string and byte-sequence loads view-eligible
    (zero-copy decode) and splits fixed byte runs of at least
    [view_threshold] (default {!Mbuf.borrow_threshold}) bytes out of
    their chunk so the engine can alias them. *)
