(** Workload generation: random values for property tests and the
    paper's three evaluation payloads (section 4).

    The paper's methods take (1) an array of integers, (2) an array of
    rectangle structures — two coordinate pairs of integers each — and
    (3) an array of variable-size directory entries, each a
    variable-length name plus a fixed 136-byte stat-like structure
    (thirty 4-byte integers and one 16-byte character array), sized so
    that an encoded entry occupies about 256 bytes. *)

val random :
  ?string_max:int ->
  ?seq_max:int ->
  ?depth_limit:int ->
  Random.State.t ->
  Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  Mint.idx ->
  Pres.t ->
  Value.t
(** A random value of the canonical representation ({!Value.rep_kind})
    for the given MINT/PRES pair, respecting declared bounds.
    Recursive types are cut off at [depth_limit].  Integers draw their
    bit length uniformly before their value (and, when signed, their
    sign), so every header width of the self-describing encodings
    occurs. *)

val int_array : int -> Value.t
(** [int_array bytes] — enough 32-bit integers to occupy [bytes]. *)

val rect_array : int -> Value.t
(** [rect_array bytes] — rectangles of four integers, 16 payload bytes
    each. *)

val dirent_array : int -> Value.t
(** [dirent_array bytes] — directory entries of roughly 256 encoded
    bytes each. *)

val dirent_name_length : int
(** Length of the synthetic file names in {!dirent_array}. *)
