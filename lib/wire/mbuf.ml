exception Short_buffer

external unsafe_set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_get32 : bytes -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The primitives store in native order; convert when the requested
   endianness differs from the machine's. *)
let native_big = Sys.big_endian

(* -- scatter-gather configuration ----------------------------------- *)

let sg_on = ref true
let sg_thresh = ref 512
let sg_enabled () = !sg_on
let set_sg_enabled b = sg_on := b
let borrow_threshold () = !sg_thresh

let set_borrow_threshold n =
  if n < 1 then invalid_arg "Mbuf.set_borrow_threshold";
  sg_thresh := n

let borrow_eligible len = !sg_on && len >= !sg_thresh

(* -- module-wide accounting ----------------------------------------- *)

(* Writer stats are per-writer (see [stats]); these mirrors accumulate
   the same events across every writer in the process so the metrics
   registry can report the wire layer as a whole.  Plain refs: the
   per-event cost is one integer add on paths that already do a blit. *)
let g_copied = ref 0
let g_copies = ref 0
let g_borrowed = ref 0
let g_borrows = ref 0
let g_flattens = ref 0
let g_seals = ref 0

(* Pool occupancy high-water marks, maxed at each release. *)
let chunk_pool_hw = ref 0
let writer_pool_hw = ref 0
let reader_pool_hw = ref 0

(* -- pooled chunk storage ------------------------------------------- *)

let chunk_size = 8192
let pool_max = 32
let chunk_pool : bytes list ref = ref []
let chunk_pool_len = ref 0

let chunk_get n =
  let n = if n < chunk_size then chunk_size else n in
  match !chunk_pool with
  | b :: rest when Bytes.length b >= n ->
      chunk_pool := rest;
      decr chunk_pool_len;
      b
  | _ -> Bytes.create n

let chunk_put b =
  if Bytes.length b >= chunk_size && !chunk_pool_len < pool_max then begin
    chunk_pool := b :: !chunk_pool;
    incr chunk_pool_len;
    if !chunk_pool_len > !chunk_pool_hw then chunk_pool_hw := !chunk_pool_len
  end

(* -- writer ---------------------------------------------------------- *)

(* A sealed segment of the message.  [s_owned] segments live in chunk
   storage this module allocated (recyclable on [reset]); borrowed
   segments alias caller-owned payload bytes and are never written to
   or recycled. *)
type seg = { s_base : bytes; s_off : int; s_len : int; s_owned : bool }

type t = {
  mutable buf : bytes;  (* active chunk: unsealed tail of the message *)
  mutable w_off : int;  (* where the active region starts inside [buf] *)
  mutable base : int;  (* global position of the active region's start *)
  mutable pos : int;  (* global cursor = message length so far *)
  mutable origin : int;  (* global position [align] measures from *)
  mutable promised : int;  (* high-water [ensure] mark (global), so
                              unchecked stores stay in bounds even when a
                              borrow seals the chunk mid-reservation *)
  mutable segs_rev : seg list;  (* sealed segments, most recent first *)
  mutable nsegs : int;
  mutable exposed : bool;  (* internal storage aliased by a caller
                              ([unsafe_contents]/[view]); [reset] must
                              detach rather than recycle *)
  mutable flat : bytes option;  (* cached flattening; at most one per
                                   message generation *)
  mutable st_copied : int;
  mutable st_borrowed : int;
  mutable st_copies : int;
  mutable st_borrows : int;
  mutable st_flattens : int;
  mutable st_seals : int;
}

let create n =
  {
    buf = Bytes.create (max n 16);
    w_off = 0;
    base = 0;
    pos = 0;
    origin = 0;
    promised = 0;
    segs_rev = [];
    nsegs = 0;
    exposed = false;
    flat = None;
    st_copied = 0;
    st_borrowed = 0;
    st_copies = 0;
    st_borrows = 0;
    st_flattens = 0;
    st_seals = 0;
  }

let reset t =
  (if t.exposed then
     (* A caller still holds the storage ([unsafe_contents], [view], a
        live reader): abandon it to the GC and start on fresh pooled
        storage so the alias keeps seeing the old message. *)
     t.buf <- chunk_get chunk_size
   else begin
     (* Recycle sealed own chunks (one chunk may back several segments;
        recycle each physical chunk once, and never the active one). *)
     let rec recycle seen = function
       | [] -> ()
       | s :: rest ->
           if s.s_owned && s.s_base != t.buf && not (List.memq s.s_base seen)
           then begin
             chunk_put s.s_base;
             recycle (s.s_base :: seen) rest
           end
           else recycle seen rest
     in
     recycle [] t.segs_rev
   end);
  t.w_off <- 0;
  t.base <- 0;
  t.pos <- 0;
  t.origin <- 0;
  t.promised <- 0;
  t.segs_rev <- [];
  t.nsegs <- 0;
  t.exposed <- false;
  t.flat <- None

let pos t = t.pos

(* Physical address in the active chunk of global position [pos + off]. *)
let apos t off = t.w_off + (t.pos - t.base) + off

(* Seal the active region into a segment; writing continues in the same
   chunk right after it. *)
let seal t =
  let len = t.pos - t.base in
  if len > 0 then begin
    t.segs_rev <-
      { s_base = t.buf; s_off = t.w_off; s_len = len; s_owned = true }
      :: t.segs_rev;
    t.nsegs <- t.nsegs + 1;
    t.st_seals <- t.st_seals + 1;
    incr g_seals;
    t.w_off <- t.w_off + len;
    t.base <- t.pos
  end

let ensure t n =
  t.flat <- None;
  if t.pos + n > t.promised then t.promised <- t.pos + n;
  if apos t n > Bytes.length t.buf then
    if t.segs_rev = [] then begin
      (* Single-segment message: grow geometrically in place (the
         contiguous PR-1 behaviour; also keeps any exposed alias valid,
         since the old storage is left untouched). *)
      let want = t.pos + n in
      let cap = ref (max 16 (Bytes.length t.buf * 2)) in
      while want > !cap do
        cap := !cap * 2
      done;
      let bigger = Bytes.create !cap in
      Bytes.blit t.buf 0 bigger 0 t.pos;
      t.buf <- bigger
    end
    else begin
      (* Segmented message: seal the active region and continue in a
         fresh pooled chunk sized for everything still promised. *)
      seal t;
      t.buf <- chunk_get (t.promised - t.base);
      t.w_off <- 0
    end

let advance t n = t.pos <- t.pos + n
let set_origin t = t.origin <- t.pos
let origin t = t.origin

let align t a =
  let rem = (t.pos - t.origin) land (a - 1) in
  if rem <> 0 then begin
    let pad = a - rem in
    ensure t pad;
    Bytes.fill t.buf (apos t 0) pad '\000';
    t.pos <- t.pos + pad
  end

(* -- unchecked stores ---------------------------------------------- *)

let set_u8 t off v =
  Bytes.unsafe_set t.buf (apos t off) (Char.unsafe_chr (v land 0xff))

let set_i16_be t off v =
  unsafe_set16 t.buf (apos t off) (if native_big then v else bswap16 v)

let set_i16_le t off v =
  unsafe_set16 t.buf (apos t off) (if native_big then bswap16 v else v)

let set_i32_be t off v =
  let v = Int32.of_int v in
  unsafe_set32 t.buf (apos t off) (if native_big then v else bswap32 v)

let set_i32_le t off v =
  let v = Int32.of_int v in
  unsafe_set32 t.buf (apos t off) (if native_big then bswap32 v else v)

let set_i64_be t off v =
  unsafe_set64 t.buf (apos t off) (if native_big then v else bswap64 v)

let set_i64_le t off v =
  unsafe_set64 t.buf (apos t off) (if native_big then bswap64 v else v)

let set_f32_be t off v =
  let bits = Int32.bits_of_float v in
  unsafe_set32 t.buf (apos t off) (if native_big then bits else bswap32 bits)

let set_f32_le t off v =
  let bits = Int32.bits_of_float v in
  unsafe_set32 t.buf (apos t off) (if native_big then bswap32 bits else bits)

let set_f64_be t off v =
  let bits = Int64.bits_of_float v in
  unsafe_set64 t.buf (apos t off) (if native_big then bits else bswap64 bits)

let set_f64_le t off v =
  let bits = Int64.bits_of_float v in
  unsafe_set64 t.buf (apos t off) (if native_big then bswap64 bits else bits)

let count_copy t len =
  t.st_copied <- t.st_copied + len;
  t.st_copies <- t.st_copies + 1;
  g_copied := !g_copied + len;
  incr g_copies

let set_bytes t off src srcoff len =
  Bytes.blit src srcoff t.buf (apos t off) len;
  count_copy t len

let fill_zero t off len = Bytes.fill t.buf (apos t off) len '\000'

(* the active chunk from the cursor to the end of what [ensure] promised *)
let wwindow t k x =
  let at = apos t 0 in
  k x t.buf at (at + t.promised - t.pos)

let set_string t off src srcoff len =
  Bytes.blit_string src srcoff t.buf (apos t off) len;
  count_copy t len

(* Store at a message-absolute position, wherever that byte now lives:
   the active region, or the sealed own segment holding it (walked back
   from the newest). *)
let patch_i32_be t at v =
  if at < 0 || at + 4 > t.pos then invalid_arg "Mbuf.patch_i32_be";
  t.flat <- None;
  let v = Int32.of_int v in
  let v = if native_big then v else bswap32 v in
  if at >= t.base then unsafe_set32 t.buf (t.w_off + at - t.base) v
  else
    let rec go seg_end = function
      | s :: rest when at < seg_end - s.s_len -> go (seg_end - s.s_len) rest
      | s :: _ when s.s_owned && at + 4 <= seg_end ->
          unsafe_set32 s.s_base (s.s_off + at - (seg_end - s.s_len)) v
      | _ -> invalid_arg "Mbuf.patch_i32_be"
    in
    go t.base t.segs_rev

(* -- checked appends ------------------------------------------------ *)

let put_u8 t v =
  ensure t 1;
  set_u8 t 0 v;
  t.pos <- t.pos + 1

let put_i16 t ~be v =
  ensure t 2;
  if be then set_i16_be t 0 v else set_i16_le t 0 v;
  t.pos <- t.pos + 2

let put_i32 t ~be v =
  ensure t 4;
  if be then set_i32_be t 0 v else set_i32_le t 0 v;
  t.pos <- t.pos + 4

let put_i64 t ~be v =
  ensure t 8;
  if be then set_i64_be t 0 v else set_i64_le t 0 v;
  t.pos <- t.pos + 8

let put_f32 t ~be v =
  ensure t 4;
  if be then set_f32_be t 0 v else set_f32_le t 0 v;
  t.pos <- t.pos + 4

let put_f64 t ~be v =
  ensure t 8;
  if be then set_f64_be t 0 v else set_f64_le t 0 v;
  t.pos <- t.pos + 8

(* -- borrowed (zero-copy) segments ---------------------------------- *)

let put_borrow_string t s off len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Mbuf.put_borrow_string";
  if len > 0 then begin
    t.flat <- None;
    seal t;
    t.segs_rev <-
      { s_base = Bytes.unsafe_of_string s; s_off = off; s_len = len;
        s_owned = false }
      :: t.segs_rev;
    t.nsegs <- t.nsegs + 1;
    t.pos <- t.pos + len;
    t.base <- t.pos;
    t.st_borrowed <- t.st_borrowed + len;
    t.st_borrows <- t.st_borrows + 1;
    g_borrowed := !g_borrowed + len;
    incr g_borrows
  end

let put_borrow_bytes t b off len =
  put_borrow_string t (Bytes.unsafe_to_string b) off len

(* -- whole-message access ------------------------------------------- *)

(* Copy the full message into [dst.(0 .. pos)]. *)
let blit_all t dst =
  let off = ref 0 in
  List.iter
    (fun s ->
      Bytes.blit s.s_base s.s_off dst !off s.s_len;
      off := !off + s.s_len)
    (List.rev t.segs_rev);
  let alen = t.pos - t.base in
  if alen > 0 then Bytes.blit t.buf t.w_off dst !off alen

let flatten t =
  if t.segs_rev = [] then t.buf (* w_off = 0: buf.(0 .. pos) is the message *)
  else
    match t.flat with
    | Some b -> b
    | None ->
        let out = Bytes.create t.pos in
        blit_all t out;
        t.st_flattens <- t.st_flattens + 1;
        t.st_copied <- t.st_copied + t.pos;
        incr g_flattens;
        g_copied := !g_copied + t.pos;
        t.flat <- Some out;
        out

let contents t =
  let out = Bytes.create t.pos in
  blit_all t out;
  t.st_copied <- t.st_copied + t.pos;
  t.st_copies <- t.st_copies + 1;
  g_copied := !g_copied + t.pos;
  incr g_copies;
  out

let unsafe_contents t =
  t.exposed <- true;
  flatten t

let view t =
  t.exposed <- true;
  (flatten t, t.pos)

let iter_segments t f =
  List.iter (fun s -> f s.s_base s.s_off s.s_len) (List.rev t.segs_rev);
  let alen = t.pos - t.base in
  if alen > 0 then f t.buf t.w_off alen

let segment_count t = t.nsegs + (if t.pos > t.base then 1 else 0)

(* -- stats ----------------------------------------------------------- *)

type stats = {
  bytes_copied : int;
  bytes_borrowed : int;
  copies : int;
  borrows : int;
  flattens : int;
  seals : int;
}

let stats t =
  {
    bytes_copied = t.st_copied;
    bytes_borrowed = t.st_borrowed;
    copies = t.st_copies;
    borrows = t.st_borrows;
    flattens = t.st_flattens;
    seals = t.st_seals;
  }

let reset_stats t =
  t.st_copied <- 0;
  t.st_borrowed <- 0;
  t.st_copies <- 0;
  t.st_borrows <- 0;
  t.st_flattens <- 0;
  t.st_seals <- 0

(* -- writer pool ----------------------------------------------------- *)

let writer_pool : t list ref = ref []
let writer_pool_len = ref 0

(* Acquire/release counters for both pools: the difference is the
   number of pooled objects currently checked out, which leak checks
   (the server fault-injection tests) pin back to baseline after every
   request, reply, and failure path. *)
let writer_acquires = ref 0
let writer_releases = ref 0
let reader_acquires = ref 0
let reader_releases = ref 0

let acquire ?size () =
  incr writer_acquires;
  let w =
    match !writer_pool with
    | w :: rest ->
        writer_pool := rest;
        decr writer_pool_len;
        w
    | [] -> create chunk_size
  in
  (match size with
  | Some n when n > 0 ->
      ensure w n;
      w.promised <- 0
  | _ -> ());
  w

let release w =
  incr writer_releases;
  reset w;
  if !writer_pool_len < pool_max then begin
    writer_pool := w :: !writer_pool;
    incr writer_pool_len;
    if !writer_pool_len > !writer_pool_hw then
      writer_pool_hw := !writer_pool_len
  end

(* -- readers --------------------------------------------------------- *)

type reader = {
  mutable rbuf : bytes;  (* current window *)
  mutable rpos : int;  (* cursor inside [rbuf] *)
  mutable rend : int;  (* window end inside [rbuf] *)
  mutable rbase : int;  (* global position = rbase + rpos *)
  mutable rmore : (bytes * int * int) list;  (* segments after the window *)
  mutable rrest : int;  (* total bytes in [rmore] *)
  mutable rsrc : t option;  (* the writer whose storage the windows alias
                               (None for reader_of_bytes); lets
                               [pin_reader] detach that storage *)
}

(* Reader-side copy accounting, module-wide (readers are pooled and
   short-lived, so per-reader counters would be awkward to collect). *)
let rd_copied = ref 0
let rd_copies = ref 0
let rd_viewed = ref 0
let rd_views = ref 0

type reader_stats = {
  rbytes_copied : int;
  rcopies : int;
  rbytes_viewed : int;
  rviews : int;
}

let reader_stats () =
  {
    rbytes_copied = !rd_copied;
    rcopies = !rd_copies;
    rbytes_viewed = !rd_viewed;
    rviews = !rd_views;
  }

let reset_reader_stats () =
  rd_copied := 0;
  rd_copies := 0;
  rd_viewed := 0;
  rd_views := 0

let reader_of_bytes ?(off = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - off in
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Mbuf.reader_of_bytes";
  {
    rbuf = b;
    rpos = off;
    rend = off + len;
    rbase = -off;
    rmore = [];
    rrest = 0;
    rsrc = None;
  }

let fill_reader r fwd total =
  match fwd with
  | [] ->
      r.rbuf <- Bytes.empty;
      r.rpos <- 0;
      r.rend <- 0;
      r.rbase <- 0;
      r.rmore <- [];
      r.rrest <- 0
  | (b, off, len) :: rest ->
      r.rbuf <- b;
      r.rpos <- off;
      r.rend <- off + len;
      r.rbase <- -off;
      r.rmore <- rest;
      r.rrest <- total - len

(* The first [left] bytes of a forward segment list. *)
let rec take_segs left = function
  | [] -> []
  | (b, off, slen) :: rest ->
      if left <= 0 then []
      else if slen >= left then [ (b, off, left) ]
      else (b, off, slen) :: take_segs (left - slen) rest

(* Forward segment list of the first [total] bytes of [t]'s message. *)
let segs_forward t total =
  let active =
    let alen = t.pos - t.base in
    if alen > 0 then [ (t.buf, t.w_off, alen) ] else []
  in
  take_segs total
    (List.rev_map (fun s -> (s.s_base, s.s_off, s.s_len)) t.segs_rev @ active)

let init_reader r ?len t =
  let total =
    match len with
    | None -> t.pos
    | Some l -> if l < 0 || l > t.pos then invalid_arg "Mbuf.reader" else l
  in
  fill_reader r (segs_forward t total) total;
  r.rsrc <- Some t

let reader ?len t =
  let r =
    {
      rbuf = Bytes.empty;
      rpos = 0;
      rend = 0;
      rbase = 0;
      rmore = [];
      rrest = 0;
      rsrc = None;
    }
  in
  init_reader r ?len t;
  r

let pin_reader r =
  match r.rsrc with
  | Some t -> t.exposed <- true
  | None -> () (* reader_of_bytes: the caller owns the storage already *)

let rpos r = r.rbase + r.rpos
let remaining r = r.rend - r.rpos + r.rrest

(* Step into the next segment; precondition: cursor at window end. *)
let advance_seg r =
  match r.rmore with
  | (b, off, len) :: rest ->
      let g = r.rbase + r.rpos in
      r.rbuf <- b;
      r.rpos <- off;
      r.rend <- off + len;
      r.rbase <- g - off;
      r.rmore <- rest;
      r.rrest <- r.rrest - len
  | [] -> assert false

(* Gather [n] bytes spanning a segment boundary into a contiguous spill
   window so the unchecked [get_*] reads stay valid (BSD-mbuf pullup).
   Precondition: [remaining r >= n] and the current window is short. *)
let pullup r n =
  let g = r.rbase + r.rpos in
  let spill = Bytes.create n in
  let avail = r.rend - r.rpos in
  Bytes.blit r.rbuf r.rpos spill 0 avail;
  let filled = ref avail in
  while !filled < n do
    match r.rmore with
    | [] -> assert false
    | (b, off, len) :: rest ->
        let take = min len (n - !filled) in
        Bytes.blit b off spill !filled take;
        r.rrest <- r.rrest - take;
        r.rmore <- (if take < len then (b, off + take, len - take) :: rest else rest);
        filled := !filled + take
  done;
  r.rbuf <- spill;
  r.rpos <- 0;
  r.rend <- n;
  r.rbase <- g

let need r n =
  if r.rpos + n > r.rend then begin
    if r.rend - r.rpos + r.rrest < n then raise Short_buffer;
    let rec go () =
      if r.rpos + n > r.rend then
        if r.rpos = r.rend && r.rmore <> [] then begin
          advance_seg r;
          go ()
        end
        else pullup r n
    in
    go ()
  end

let skip r n =
  if n <= r.rend - r.rpos then r.rpos <- r.rpos + n
  else begin
    if remaining r < n then raise Short_buffer;
    let left = ref (n - (r.rend - r.rpos)) in
    r.rpos <- r.rend;
    while !left > 0 do
      advance_seg r;
      let take = min (r.rend - r.rpos) !left in
      r.rpos <- r.rpos + take;
      left := !left - take
    done
  end

let ralign r a =
  let rem = (r.rbase + r.rpos) land (a - 1) in
  if rem <> 0 then skip r (a - rem)

let get_u8 r off = Char.code (Bytes.unsafe_get r.rbuf (r.rpos + off))

let get_i16_be r off =
  let v = unsafe_get16 r.rbuf (r.rpos + off) in
  if native_big then v else bswap16 v

let get_i16_le r off =
  let v = unsafe_get16 r.rbuf (r.rpos + off) in
  if native_big then bswap16 v else v

let get_i32_be r off =
  let v = unsafe_get32 r.rbuf (r.rpos + off) in
  Int32.to_int (if native_big then v else bswap32 v)

let get_i32_le r off =
  let v = unsafe_get32 r.rbuf (r.rpos + off) in
  Int32.to_int (if native_big then bswap32 v else v)

let get_i64_be r off =
  let v = unsafe_get64 r.rbuf (r.rpos + off) in
  if native_big then v else bswap64 v

let get_i64_le r off =
  let v = unsafe_get64 r.rbuf (r.rpos + off) in
  if native_big then bswap64 v else v

let get_f32_be r off =
  let v = unsafe_get32 r.rbuf (r.rpos + off) in
  Int32.float_of_bits (if native_big then v else bswap32 v)

let get_f32_le r off =
  let v = unsafe_get32 r.rbuf (r.rpos + off) in
  Int32.float_of_bits (if native_big then bswap32 v else v)

let get_f64_be r off =
  let v = unsafe_get64 r.rbuf (r.rpos + off) in
  Int64.float_of_bits (if native_big then v else bswap64 v)

let get_f64_le r off =
  let v = unsafe_get64 r.rbuf (r.rpos + off) in
  Int64.float_of_bits (if native_big then bswap64 v else v)

let get_bytes r off len = Bytes.sub r.rbuf (r.rpos + off) len
let get_string r off len = Bytes.sub_string r.rbuf (r.rpos + off) len
let window r k x = k x r.rbuf r.rpos r.rend
let window2 r k x y = k x y r.rbuf r.rpos r.rend

let read_u8 r =
  need r 1;
  let v = get_u8 r 0 in
  r.rpos <- r.rpos + 1;
  v

let read_i16 r ~be =
  need r 2;
  let v = if be then get_i16_be r 0 else get_i16_le r 0 in
  r.rpos <- r.rpos + 2;
  v

let read_i32 r ~be =
  need r 4;
  let v = if be then get_i32_be r 0 else get_i32_le r 0 in
  r.rpos <- r.rpos + 4;
  v

let read_i64 r ~be =
  need r 8;
  let v = if be then get_i64_be r 0 else get_i64_le r 0 in
  r.rpos <- r.rpos + 8;
  v

let read_f32 r ~be =
  need r 4;
  let v = if be then get_f32_be r 0 else get_f32_le r 0 in
  r.rpos <- r.rpos + 4;
  v

let read_f64 r ~be =
  need r 8;
  let v = if be then get_f64_be r 0 else get_f64_le r 0 in
  r.rpos <- r.rpos + 8;
  v

(* Gather-aware bulk reads: the fast path is an in-window sub; the slow
   path copies across segment boundaries without disturbing the window
   (no pullup needed, the result is its own buffer). *)
let read_into r dst at len =
  if len < 0 || remaining r < len then raise Short_buffer;
  rd_copied := !rd_copied + len;
  incr rd_copies;
  let filled = ref 0 in
  while !filled < len do
    if r.rpos = r.rend then advance_seg r;
    let take = min (r.rend - r.rpos) (len - !filled) in
    Bytes.blit r.rbuf r.rpos dst (at + !filled) take;
    r.rpos <- r.rpos + take;
    filled := !filled + take
  done

let read_bytes r len =
  if len >= 0 && r.rpos + len <= r.rend then begin
    rd_copied := !rd_copied + len;
    incr rd_copies;
    let v = Bytes.sub r.rbuf r.rpos len in
    r.rpos <- r.rpos + len;
    v
  end
  else begin
    if len < 0 || remaining r < len then raise Short_buffer;
    let out = Bytes.create len in
    read_into r out 0 len;
    out
  end

let read_string r len = Bytes.unsafe_to_string (read_bytes r len)

(* Zero-copy view of the next [len] bytes, when they sit whole inside
   one segment: returns the window slice and advances the cursor.
   [None] when the span crosses a segment boundary — the caller falls
   back to the gathering copy ([read_bytes]).  The returned slice
   aliases whatever backs the current window: the source writer's
   storage, a payload borrowed into the message, or a private pullup
   spill buffer.  See the reader-view aliasing contract in the mli. *)
let view_bytes r len =
  if len < 0 || remaining r < len then raise Short_buffer;
  while r.rpos = r.rend && r.rmore <> [] do
    advance_seg r
  done;
  if r.rpos + len <= r.rend then begin
    let res = (r.rbuf, r.rpos, len) in
    r.rpos <- r.rpos + len;
    rd_viewed := !rd_viewed + len;
    incr rd_views;
    Some res
  end
  else None

(* A sub-reader over the next [len] bytes, rebased so its positions
   count from its own first byte; [r] skips past them. *)
let split r len =
  if len < 0 || remaining r < len then raise Short_buffer;
  while r.rpos = r.rend && r.rmore <> [] do
    advance_seg r
  done;
  let inwin = r.rend - r.rpos in
  let inwin = if len < inwin then len else inwin in
  let sub =
    {
      rbuf = r.rbuf;
      rpos = r.rpos;
      rend = r.rpos + inwin;
      rbase = -r.rpos;
      rmore = (if len = inwin then [] else take_segs (len - inwin) r.rmore);
      rrest = len - inwin;
      rsrc = r.rsrc;
    }
  in
  skip r len;
  sub

(* -- reader -> writer forwarding ------------------------------------ *)

(* Unchecked span copy for fused forward runs: the caller has already
   made the source span contiguous with [need] and reserved the
   destination with [ensure], so both sides are plain blits. *)
let copy_at r soff w doff len =
  if len > 0 then set_bytes w doff r.rbuf (r.rpos + soff) len

(* Move [len] bytes from the read cursor to the write cursor, the bulk
   primitive behind fused forward stubs.  Returns the number of bytes
   spliced by reference (0 when the span was copied). *)
let transfer ?(borrow = false) r w len =
  if len < 0 || remaining r < len then raise Short_buffer;
  let copy_spans () =
    ensure w len;
    let filled = ref 0 in
    while !filled < len do
      if r.rpos = r.rend then advance_seg r;
      let take = min (r.rend - r.rpos) (len - !filled) in
      set_bytes w !filled r.rbuf r.rpos take;
      r.rpos <- r.rpos + take;
      filled := !filled + take
    done;
    rd_copied := !rd_copied + len;
    incr rd_copies;
    advance w len;
    0
  in
  if len = 0 then 0
  else if borrow && borrow_eligible len then
    match view_bytes r len with
    | Some (base, off, n) ->
        (* The borrowed segment aliases the receive buffer: pin it so
           the source writer's next reset detaches the storage. *)
        pin_reader r;
        put_borrow_bytes w base off n;
        n
    | None -> copy_spans () (* span straddles a segment boundary *)
  else copy_spans ()

(* -- reader pool ----------------------------------------------------- *)

let reader_pool : reader list ref = ref []
let reader_pool_len = ref 0

let acquire_reader ?len t =
  incr reader_acquires;
  match !reader_pool with
  | r :: rest ->
      reader_pool := rest;
      decr reader_pool_len;
      init_reader r ?len t;
      r
  | [] -> reader ?len t

let release_reader r =
  incr reader_releases;
  r.rbuf <- Bytes.empty;
  r.rpos <- 0;
  r.rend <- 0;
  r.rbase <- 0;
  r.rmore <- [];
  r.rrest <- 0;
  r.rsrc <- None;
  if !reader_pool_len < pool_max then begin
    reader_pool := r :: !reader_pool;
    incr reader_pool_len;
    if !reader_pool_len > !reader_pool_hw then
      reader_pool_hw := !reader_pool_len
  end

(* -- pool accounting -------------------------------------------------- *)

type pool_stats = {
  writers_pooled : int;
  writers_outstanding : int;
  readers_pooled : int;
  readers_outstanding : int;
  chunks_pooled : int;
}

let pool_stats () =
  {
    writers_pooled = !writer_pool_len;
    writers_outstanding = !writer_acquires - !writer_releases;
    readers_pooled = !reader_pool_len;
    readers_outstanding = !reader_acquires - !reader_releases;
    chunks_pooled = !chunk_pool_len;
  }

(* -- metrics-registry export ----------------------------------------- *)

(* One pull-based probe for the whole wire layer: process-wide writer
   accounting, the module-global reader accounting, and pool occupancy
   with high-water marks.  Registered at module initialization, so any
   program linking the wire layer reports it in [flick stats]. *)
let () =
  Obs.probe "wire" (fun () ->
      let rs = reader_stats () in
      [
        ("bytes_copied", float_of_int !g_copied);
        ("copies", float_of_int !g_copies);
        ("bytes_borrowed", float_of_int !g_borrowed);
        ("borrows", float_of_int !g_borrows);
        ("flattens", float_of_int !g_flattens);
        ("seals", float_of_int !g_seals);
        ("read_bytes_copied", float_of_int rs.rbytes_copied);
        ("read_copies", float_of_int rs.rcopies);
        ("read_bytes_viewed", float_of_int rs.rbytes_viewed);
        ("read_views", float_of_int rs.rviews);
        ("pool.chunks", float_of_int !chunk_pool_len);
        ("pool.chunks_hw", float_of_int !chunk_pool_hw);
        ("pool.writers", float_of_int !writer_pool_len);
        ("pool.writers_hw", float_of_int !writer_pool_hw);
        ("pool.readers", float_of_int !reader_pool_len);
        ("pool.readers_hw", float_of_int !reader_pool_hw);
        ("pool.writers_outstanding",
         float_of_int (!writer_acquires - !writer_releases));
        ("pool.readers_outstanding",
         float_of_int (!reader_acquires - !reader_releases));
      ])
