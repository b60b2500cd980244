(** The RPC frame codec: the one place that knows the header layout.

    A frame is [len:u32] [head words:u32 ...] [payload], big-endian;
    [len] counts everything after the length word.  A request's head is
    [iface; op; seq], a reply's [status; seq].

    The writer never copies a payload: it reserves the length word and
    writes the head at the cursor, makes the payload's first byte the
    alignment origin ({!Mbuf.set_origin}), and back-patches the length
    once the payload is in ({!Mbuf.patch_i32_be}).  The parser hands
    out each whole frame's payload as a sub-reader ({!Mbuf.split}) over
    the delivery it arrived in, which the caller keeps alive while it
    keeps the reader; only a frame that straddles two deliveries is
    copied, into a carry buffer that then becomes its storage. *)

val request_head : int
val reply_head : int

val open_request : Mbuf.t -> iface:int -> op:int -> seq:int -> int
val open_reply : Mbuf.t -> status:int -> seq:int -> int
(** Start a frame at the cursor; returns its position for {!close}. *)

val close : Mbuf.t -> int -> unit
(** [close w at]: the frame opened at [at] ends at the cursor. *)

type parser

val parser : head:int -> max_body:int -> parser
(** A connection's parser: [head] bytes of head words, [len] within
    [\[head, max_body\]]. *)

val feed : parser -> Mbuf.reader -> bad:(int -> unit) -> (Mbuf.reader -> unit) -> unit
(** Consume one delivery, calling back with each whole frame's payload
    (positions from its first byte; head words via {!word}).  A length
    out of bounds calls [bad] with it and stops the parse. *)

val word : parser -> int -> int

val pending : parser -> int
(** Bytes of a partial frame carried. *)

val discard : parser -> unit
