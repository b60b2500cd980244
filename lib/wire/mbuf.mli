(** Marshal buffers: the runtime substrate Flick-generated stubs write
    into and read from.

    A writer is a scatter-gather message builder (paper section 3.1,
    "marshal buffer management").  Small writes land in pooled chunk
    storage with an explicit capacity-reservation step ({!ensure})
    separated from the raw store operations, exactly mirroring the
    split the paper's optimization relies on: optimized stubs call
    {!ensure} once per fixed-size message segment and then use the
    unchecked [set_*]/[advance] operations at static offsets, while
    rpcgen-style stubs call a checked [put_*] per datum.  Large
    payloads can be {e borrowed} by reference ({!put_borrow_string},
    {!put_borrow_bytes}): the message becomes an iovec-style list of
    segments and the payload bytes are never copied.  Flattening to
    contiguous bytes happens at most once per message, and only when a
    consumer actually asks for it ({!contents}, {!unsafe_contents},
    {!view}); length-only consumers use {!pos} and checksum-style
    consumers use {!iter_segments}, neither of which copies.

    Writers are reused across invocations ({!reset}) as Flick stubs
    reuse their dynamically allocated buffers, and can be pooled
    ({!acquire}/{!release}) so steady-state encode allocates nothing
    beyond the segment table.

    Multi-byte stores come in big- and little-endian variants; [set_*]
    writes at a cursor-relative offset without moving the cursor (chunk
    addressing: pointer-plus-constant-offset), [put_*] appends at the
    cursor with a bounds check and growth (the traditional stub shape).

    A {!reader} is a bounded view used by unmarshal code, with checked
    reads and a batched {!need} precheck for chunked decoding.  Readers
    decode transparently across segment boundaries: {!need} gathers a
    spanning datum into a contiguous window (BSD-mbuf "pullup") so the
    unchecked [get_*] reads stay valid.  Reads past the message raise
    {!Short_buffer} — truncated-message failure injection in the tests
    relies on this, including truncation that lands mid-segment.

    {2 Aliasing and reuse contracts}

    - {!unsafe_contents} and {!view} return internal storage, but that
      storage is {e detached} on the next {!reset}: a later
      [reset]+encode cycle on the same writer (or a pooled reuse) never
      mutates bytes previously handed out.  The returned bytes stay
      valid indefinitely.
    - A {!reader} obtained from a writer aliases the writer's live
      storage (that is what makes it copy-free): it stays valid only
      until the writer is next {e written to} — whether appending more
      data or a [reset]+encode reuse.  Decode fully (or copy) before
      reusing the writer.
    - {!put_borrow_bytes} borrows the caller's buffer by reference: the
      caller must not mutate it until the message has been consumed
      (transmitted, read, flattened) or the writer reset.  Borrowed
      bytes are never written to or recycled by this module.
    - {!iter_segments} passes internal storage to the callback; the
      slices are only valid during the iteration — copy anything that
      must outlive it.
    - {!view_bytes} returns a slice that aliases whatever backs the
      reader's current window: the source writer's live storage, a
      payload that was borrowed into the message, or a private pullup
      spill buffer.  A view into a writer-backed reader is therefore
      valid only until that writer is next written to (same rule as the
      reader itself) — {e unless} the reader is first pinned with
      {!pin_reader}, which marks the writer's storage exposed so the
      next [reset]+encode detaches it instead of overwriting or
      recycling it.  Decoders that hand out zero-copy views
      ([Value.Vbytes_view]/[Vstring_view]) pin the reader at decode
      time for exactly this reason; consumers that need the bytes to
      survive the original message's lifetime must still
      [Value.materialize] them.
    - Positions are relative: {!align} measures from the writer's
      origin ({!set_origin}, 0 after {!reset}) and a reader counts from
      its own start ({!reader_of_bytes} [~off], {!split}), so a payload
      behind a frame header pads as it would alone.
    - {!patch_i32_be} writes into storage that readers and
      {!iter_segments} slices already see: patch before the message is
      read, transmitted or exposed. *)

exception Short_buffer

type t

val create : int -> t
val reset : t -> unit
(** Clear the writer for a new message.  Sealed chunks are recycled to
    the chunk pool unless the storage was exposed via
    {!unsafe_contents}/{!view}, in which case it is detached instead
    (see the aliasing contract above). *)

val pos : t -> int
(** Message length so far.  Length-only consumers (e.g. a simulated
    link) should use this rather than flattening. *)

val contents : t -> bytes
(** Copy of the bytes written so far (always a fresh buffer). *)

val unsafe_contents : t -> bytes
(** The message as contiguous bytes (valid up to {!pos}); not a copy
    when the message is a single segment, otherwise a cached one-time
    flattening.  Safe across a later [reset]+encode (see contract). *)

val view : t -> bytes * int
(** [view t] = [(unsafe_contents t, pos t)]: contiguous bytes plus the
    valid length, without the per-call copy of {!contents}. *)

val iter_segments : t -> (bytes -> int -> int -> unit) -> unit
(** [iter_segments t f] calls [f base off len] for each segment of the
    message in order, without flattening.  Slices are valid only during
    the iteration. *)

val segment_count : t -> int
(** Number of segments the message currently spans (1 for a fully
    contiguous message). *)

val ensure : t -> int -> unit
(** Guarantee capacity for [n] more contiguous bytes: grows the single
    chunk geometrically while the message is contiguous, otherwise
    seals the active region and continues in a fresh pooled chunk.
    The reservation survives interleaved borrows: unchecked stores
    pre-reserved by an [ensure] (e.g. a hoisted [Ensure_count]) stay in
    bounds even if a borrow seals the active chunk in between. *)

val advance : t -> int -> unit
(** Move the cursor forward over bytes already stored with [set_*]. *)

val align : t -> int -> unit
(** Pad the cursor with zero bytes to the given power-of-two alignment,
    measured from the origin; includes its own capacity check. *)

val set_origin : t -> unit
(** Make the cursor the origin {!align} measures from. *)

val patch_i32_be : t -> int -> int -> unit
(** [patch_i32_be t at v] stores [v] big-endian at message-absolute
    position [at], 4 bytes inside one writer-owned segment (else
    [Invalid_argument]): a length word back-patched after its payload. *)

(** Unchecked stores at [pos t + off]; call {!ensure} first. *)

val set_u8 : t -> int -> int -> unit
val set_i16_be : t -> int -> int -> unit
val set_i16_le : t -> int -> int -> unit
val set_i32_be : t -> int -> int -> unit
val set_i32_le : t -> int -> int -> unit
val set_i64_be : t -> int -> int64 -> unit
val set_i64_le : t -> int -> int64 -> unit
val set_f32_be : t -> int -> float -> unit
val set_f32_le : t -> int -> float -> unit
val set_f64_be : t -> int -> float -> unit
val set_f64_le : t -> int -> float -> unit
val set_bytes : t -> int -> bytes -> int -> int -> unit
(** [set_bytes t off src srcoff len] — the memcpy path (counted in
    {!stats}). *)

val fill_zero : t -> int -> int -> unit
(** [fill_zero t off len] zeroes a reserved span (chunk padding). *)

val set_string : t -> int -> string -> int -> int -> unit

val wwindow : t -> ('a -> bytes -> int -> int -> 'b) -> 'a -> 'b
(** The writer twin of {!window}: [wwindow t k x] is [k x b at stop],
    where [b.[at .. stop)] are the bytes the preceding {!ensure}
    reserved, from the cursor on.  [k] stores inside them and keeps no
    [b]; the caller {!advance}s.  A borrow after the [ensure] voids the
    window. *)

(** Checked appends: each performs its own {!ensure} — the per-datum
    shape of traditional stubs. *)

val put_u8 : t -> int -> unit
val put_i16 : t -> be:bool -> int -> unit
val put_i32 : t -> be:bool -> int -> unit
val put_i64 : t -> be:bool -> int64 -> unit
val put_f32 : t -> be:bool -> float -> unit
val put_f64 : t -> be:bool -> float -> unit

(** Zero-copy appends: splice [len] bytes of the caller's payload into
    the message by reference (no copy, no capacity needed).  See the
    aliasing contract for {!put_borrow_bytes}. *)

val put_borrow_string : t -> string -> int -> int -> unit
val put_borrow_bytes : t -> bytes -> int -> int -> unit

(** {2 Scatter-gather configuration}

    Stub engines consult these when compiling an encoder (the cached
    closure's behaviour is fully determined by its fingerprint, which
    includes both settings): a blit-shaped datum is borrowed only when
    scatter-gather is enabled and the datum is at least
    {!borrow_threshold} bytes (below that, the copy into pooled chunk
    storage is cheaper than carrying a segment).  The [--no-sg] bench
    flag flips {!set_sg_enabled} for ablation. *)

val sg_enabled : unit -> bool
val set_sg_enabled : bool -> unit
val borrow_threshold : unit -> int
val set_borrow_threshold : int -> unit
val borrow_eligible : int -> bool
(** [borrow_eligible len] — [sg_enabled () && len >= borrow_threshold ()]. *)

(** {2 Copy accounting} *)

type stats = {
  bytes_copied : int;  (** payload bytes memcpy'd (set_bytes/set_string,
                           plus whole-message copies by contents/flatten) *)
  bytes_borrowed : int;  (** payload bytes spliced by reference *)
  copies : int;
  borrows : int;
  flattens : int;  (** times a segmented message was flattened *)
  seals : int;
}

val stats : t -> stats
(** Cumulative counters since creation or {!reset_stats} ({!reset} does
    not clear them, so steady-state loops can be measured). *)

val reset_stats : t -> unit

(** {2 Writer pool} *)

val acquire : ?size:int -> unit -> t
(** Take a writer from the reuse pool (or create one); [?size] is a
    capacity hint.  The writer comes back reset. *)

val release : t -> unit
(** Reset and return a writer to the pool. *)

(** {2 Pool accounting}

    Checked-out object counts for the writer and reader pools:
    [*_outstanding] is acquires minus releases since process start, so a
    code path that takes a pooled object on every request must leave the
    outstanding counts exactly where it found them — the leak check the
    server fault-injection tests pin after every failure path.  Objects
    built with {!create}/{!reader_of_bytes} and never released are
    invisible here (they were never the pool's to reclaim). *)

type pool_stats = {
  writers_pooled : int;  (** writers currently resting in the pool *)
  writers_outstanding : int;  (** {!acquire} minus {!release} calls *)
  readers_pooled : int;
  readers_outstanding : int;  (** {!acquire_reader} minus {!release_reader} *)
  chunks_pooled : int;
}

val pool_stats : unit -> pool_stats

(** {2 Readers} *)

type reader

val reader_of_bytes : ?off:int -> ?len:int -> bytes -> reader
(** Reads [len] bytes of the buffer in place from [off] (defaults: all
    of it); positions, alignment included, count from [off]. *)

val reader : ?len:int -> t -> reader
(** Read back what was written, directly over the writer's segments (no
    flattening, no copy).  [?len] caps the readable prefix — used to
    inject truncation, including mid-segment.  Valid until the writer
    is written to again (see the aliasing contract). *)

val acquire_reader : ?len:int -> t -> reader
(** Pooled variant of {!reader}; pair with {!release_reader}. *)

val release_reader : reader -> unit

val rpos : reader -> int
(** Bytes consumed since the reader's start. *)

val remaining : reader -> int
val need : reader -> int -> unit
(** Raise {!Short_buffer} unless [n] bytes remain — the batched check
    unmarshal chunks use.  Guarantees the next [n] bytes are contiguous
    for the unchecked [get_*] reads, gathering across a segment
    boundary when necessary. *)

val skip : reader -> int -> unit
val ralign : reader -> int -> unit

(** Unchecked reads at [rpos + off]; call {!need} first. *)

val get_u8 : reader -> int -> int
val get_i16_be : reader -> int -> int
val get_i16_le : reader -> int -> int
val get_i32_be : reader -> int -> int
val get_i32_le : reader -> int -> int
val get_i64_be : reader -> int -> int64
val get_i64_le : reader -> int -> int64
val get_f32_be : reader -> int -> float
val get_f32_le : reader -> int -> float
val get_f64_be : reader -> int -> float
val get_f64_le : reader -> int -> float
val get_bytes : reader -> int -> int -> bytes
val get_string : reader -> int -> int -> string

val window : reader -> ('a -> bytes -> int -> int -> 'b) -> 'a -> 'b
(** [window r k x] is [k x b cur stop]: [b.[cur .. stop)] are the next
    unread bytes of [r]'s current window ({!need} [n] first makes at
    least [n] of them contiguous).  For decode kernels that read a run
    in place; [x] lets a kernel built once take per-call state without
    a closure.  [k] must not keep [b], and the caller advances the
    cursor with {!skip} afterwards. *)

(** Checked sequential reads (advance the cursor); the bulk reads
    gather across segment boundaries. *)

val read_u8 : reader -> int
val read_i16 : reader -> be:bool -> int
val read_i32 : reader -> be:bool -> int
val read_i64 : reader -> be:bool -> int64
val read_f32 : reader -> be:bool -> float
val read_f64 : reader -> be:bool -> float
val read_bytes : reader -> int -> bytes
val read_string : reader -> int -> string

val read_into : reader -> bytes -> int -> int -> unit
(** [read_into r dst at len] copies the next [len] bytes into
    [dst.(at .. at+len)] (gathering across segments) and advances. *)

val split : reader -> int -> reader
(** [split r len] is a reader over the next [len] bytes of [r] (same
    storage, positions counted from its own start); [r] skips them.
    Raises {!Short_buffer} when fewer remain. *)

(** {2 Zero-copy reader views} *)

val view_bytes : reader -> int -> (bytes * int * int) option
(** [view_bytes r len] consumes the next [len] bytes without copying
    when they lie whole inside one segment, returning [(base, off, len)]
    into that segment's backing storage and advancing the cursor.
    Returns [None] (cursor unmoved) when the span crosses a segment
    boundary — fall back to {!read_bytes}.  Raises {!Short_buffer} when
    fewer than [len] bytes remain.  See the aliasing contract above:
    pin the reader ({!pin_reader}) if the view must survive reuse of
    the source writer. *)

val pin_reader : reader -> unit
(** Mark the storage behind a writer-backed reader as exposed, so the
    writer's next [reset] detaches it rather than recycling or
    overwriting it — the same detachment {!unsafe_contents} gets.
    After pinning, views and the reader itself stay valid across later
    [reset]+encode cycles on that writer.  No-op for
    {!reader_of_bytes} readers (the caller owns that storage). *)

(** {2 Reader → writer forwarding}

    The primitives behind fused forward stubs (gateway relaying): bytes
    move straight from a receive buffer to a transmit buffer without an
    intermediate value. *)

val copy_at : reader -> int -> t -> int -> int -> unit
(** [copy_at r soff w doff len] blits [len] bytes at [rpos r + soff]
    into the writer at [pos w + doff].  Unchecked on both sides: call
    {!need} covering the source span and {!ensure} covering the
    destination span first (a fused run does one of each for the whole
    run).  Counted as a writer copy in {!stats}. *)

val transfer : ?borrow:bool -> reader -> t -> int -> int
(** [transfer ?borrow r w len] moves the next [len] bytes from the read
    cursor to the write cursor, advancing both.  With [~borrow:true],
    when the span is {!borrow_eligible} and lies whole inside one
    segment, it is spliced by reference ({!put_borrow_bytes}) with the
    reader pinned — zero bytes touched; otherwise the span is copied
    segment by segment (no intermediate allocation).  Returns the
    number of bytes borrowed (0 when copied).  Raises {!Short_buffer}
    when fewer than [len] bytes remain, cursor unmoved. *)

(** {2 Reader-side copy accounting}

    Module-wide counters (readers are pooled and short-lived): bulk
    payload bytes copied out of messages ({!read_bytes},
    {!read_string}) versus handed out by reference ({!view_bytes}). *)

type reader_stats = {
  rbytes_copied : int;
  rcopies : int;
  rbytes_viewed : int;
  rviews : int;
}

val reader_stats : unit -> reader_stats
val reset_reader_stats : unit -> unit
