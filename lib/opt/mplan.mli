(** The marshal plan: Flick's optimization decisions as a small typed
    program over an abstract message buffer.

    The plan compiler ({!Plan_compile}) lowers a (MINT, PRES, encoding)
    triple into this IR, applying the paper's section-3 optimizations:

    - {b marshal buffer management}: consecutive fixed-size data merge
      into a {!constructor-Chunk} with one capacity check and static
      offsets (the paper's "chunk" with pointer-plus-constant-offset
      addressing); arrays of fixed-size elements get one
      {!constructor-Ensure_count} covering the whole run;
    - {b efficient copying}: packed byte runs become blits
      ({!constructor-Put_string}, {!constructor-Put_byteseq},
      {!constructor-It_bytes} inside chunks — the memcpy optimization);
      arrays of scalars become a single tight loop
      ({!constructor-Put_atom_array}) instead of per-element calls;
    - {b efficient control flow}: the tree is fully inlined except at
      {!constructor-Call} nodes, which appear exactly at the recursion
      points of self-referential types;
    - {b demultiplexing}: {!constructor-Switch} carries the information
      back ends need to build C [switch] dispatch (including the
      word-chunked comparison of string discriminators).

    Two consumers interpret plans: the C back ends print them as stub
    bodies (CAST statements), and {!Stub_opt} executes them directly
    over runtime values, which is how the benchmarks measure exactly the
    code shapes the compiler decided on. *)

(** How an array-like value is presented in C, i.e. how generated code
    obtains its length and its elements. *)
type via =
  | Via_seq of { len_field : string; buf_field : string }
      (** counted sequence struct *)
  | Via_string  (** NUL-terminated [char *]; length via [strlen] *)
  | Via_fixed of int  (** fixed-size array *)
  | Via_opt  (** nullable pointer: length 0 or 1 *)

type atom = { kind : Encoding.atom_kind; size : int; align : int }

(** A path from the stub's parameters to a value, mirrored by the C
    emitter (as an lvalue expression) and by the stub engine (as
    navigation over runtime values). *)
type rv =
  | Rparam of { index : int; name : string; deref : bool }
  | Rfield of { base : rv; index : int; member : string; fixed : int option }
      (** member [index]; [fixed = Some n] when [base] is a fixed array
          of [n] elements unrolled into a chunk, which the engine checks
          before it stores the array *)
  | Rvar of int  (** a loop's element variable *)
  | Rarm of { base : rv; case : int; member : string; union_field : string }
  | Ropt of rv  (** payload of a non-null optional pointer *)
  | Rdiscrim of { base : rv; member : string }
      (** the discriminator value of a union *)

type item =
  | It_atom of { off : int; atom : atom; src : rv }
  | It_bytes of { off : int; len : int; pad : int; src : rv }
      (** fixed-length packed byte run — memcpy *)
  | It_const of { off : int; atom : atom; value : int64 }
      (** constant word (discriminators, Mach type descriptors) *)

type op =
  | Align of int  (** dynamic alignment to a power of two *)
  | Chunk of { size : int; align : int; items : item list; check : bool }
      (** one capacity check ([check] false inside pre-ensured loops),
          zero-filled span, stores at static offsets, single advance *)
  | Put_varhead of {
      vh_kind : Encoding.atom_kind;
      vh_worst : int;
          (** bytes reserved; the emit advances by the actual width *)
      vh_check : bool;
          (** false only under a covering worst-case reservation *)
      vh_src : rv;
    }
      (** value-dependent scalar emit for a self-describing encoding:
          reserve [vh_worst], write the minimal-width form (a constant
          one is written into its chunk as its image's bytes) *)
  | Ensure_count of { arr : rv; via : via; unit_size : int }
      (** reserve length * unit once for a whole array *)
  | Put_const_str of { s : string; nul : bool; pad : int }
      (** constant counted string (operation-name discriminators) *)
  | Put_string of {
      src : rv;
      nul : bool;
      pad : int;
      len_src : rv option;
      borrow : bool;
          (** payload may be spliced by reference when scatter-gather is
              on and the runtime length clears the borrow threshold *)
      max_len : int option;
          (** the declared bound, which every op writing a bounded
              length checks before it stores *)
    }
  | Put_byteseq of { arr : rv; via : via; pad : int; borrow : bool; max_len : int option }
  | Put_atom_array of { arr : rv; via : via; atom : atom; with_len : bool; max_len : int option }
      (** never borrowable: scalar arrays need a per-element byte-order
          transform, so the copy is also the swap *)
  | Put_blit of { src : rv; len : int; pad : int }
      (** a fixed-length packed byte run large enough that it was split
          out of its chunk so the engine can borrow it by reference
          (zero-copy); falls back to a copy below the runtime
          threshold *)
  | Put_len of { arr : rv; via : via; max_len : int option }
  | Loop of { arr : rv; via : via; var : int; body : op list }
  | Switch of {
      u : rv;
      discrim_atom : atom option;  (** [None] for string-keyed unions *)
      arms : arm list;
      default : (string * op list) option;
      union_field : string;
      discrim_field : string;
    }
  | Call of string * rv  (** named marshal routine (recursive types) *)

and arm = {
  a_const : Mint.const;
  a_case : int;  (** index into the MINT union's cases *)
  a_member : string;  (** C member carrying this arm's data *)
  a_body : op list;
}

val pp_atom : Format.formatter -> atom -> unit
val pp_kind : Format.formatter -> Encoding.atom_kind -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> op list -> unit
val pp_rv : Format.formatter -> rv -> unit

val count_ops : op list -> int
(** Total number of nodes, a rough proxy for generated code size. *)

val count_checks : op list -> int
(** Static count of capacity-check sites (checked chunks, explicit
    reservations, and the self-ensuring variable-length ops); loop
    bodies count once.  The encode analog of {!Dplan.count_checks}. *)
