let request_head = 12 (* iface + op + seq *)
let reply_head = 8 (* status + seq *)

let u32 v = v land 0xffffffff

let put b i v = Bytes.set_int32_be b i (Int32.of_int v)
let get b i = u32 (Int32.to_int (Bytes.get_int32_be b i))

(* Reserve the length word, write it and the head words ([c] only in a
   request's 12-byte head) in one window, and make the payload start
   the origin. *)
let start w head a b c =
  let at = Mbuf.pos w in
  Mbuf.ensure w (4 + head);
  Mbuf.wwindow w
    (fun () buf i _ ->
      put buf i 0;
      put buf (i + 4) a;
      put buf (i + 8) b;
      if head > 8 then put buf (i + 12) c)
    ();
  Mbuf.advance w (4 + head);
  Mbuf.set_origin w;
  at

let open_request w ~iface ~op ~seq = start w request_head iface op seq
let open_reply w ~status ~seq = start w reply_head status seq 0
let close w at = Mbuf.patch_i32_be w at (Mbuf.pos w - at - 4)

type parser = {
  head : int;
  max_body : int;
  mutable w0 : int;  (* the current frame's head words *)
  mutable w1 : int;
  mutable w2 : int;
  mutable carry : bytes;
      (* the straddling frame: 4 bytes until its length word is whole,
         then exactly its size; empty until a frame straddles *)
  mutable have : int;  (* bytes of it held *)
}

let parser ~head ~max_body =
  { head; max_body; w0 = 0; w1 = 0; w2 = 0; carry = Bytes.empty; have = 0 }

let word p = function 0 -> p.w0 | 1 -> p.w1 | _ -> p.w2
let pending p = p.have

let discard p =
  p.have <- 0;
  p.carry <- Bytes.empty

(* The length word at [b.[i]], and the head words after it once the
   window holds them. *)
let read_head p b i stop =
  if stop - i >= 4 + p.head then begin
    p.w0 <- get b (i + 4);
    p.w1 <- get b (i + 8);
    if p.head > 8 then p.w2 <- get b (i + 12)
  end;
  get b i

(* The frame at the front of [r] ([avail] bytes): its size once handed
   out whole, 0 when it is not all there, -1 after a bad length. *)
let take p r avail ~bad frame =
  Mbuf.need r (if avail < 4 + p.head then 4 else 4 + p.head);
  let len = Mbuf.window r read_head p in
  if len < p.head || len > p.max_body then begin
    bad len;
    -1
  end
  else if avail < 4 + len then 0
  else begin
    Mbuf.skip r (4 + p.head);
    frame (Mbuf.split r (len - p.head));
    4 + len
  end

let rec parse p r avail ~bad frame =
  if p.have = 0 && avail >= 4 then begin
    let n = take p r avail ~bad frame in
    if n > 0 then parse p r (avail - n) ~bad frame
    else if n = 0 then carry p r avail ~bad frame
  end
  else if avail > 0 then carry p r avail ~bad frame

(* The straddling frame's carry grows to the frame's size once its
   length word is in, and hands the frame out once it is whole. *)
and carry p r avail ~bad frame =
  if p.have = 0 then p.carry <- Bytes.create 4;
  let want = Bytes.length p.carry in
  let n = if want - p.have < avail then want - p.have else avail in
  Mbuf.read_into r p.carry p.have n;
  p.have <- p.have + n;
  if p.have = want then begin
    let b = p.carry in
    let took = take p (Mbuf.reader_of_bytes b) want ~bad frame in
    if took = 0 then begin
      p.carry <- Bytes.extend b 0 (get b 0);
      carry p r (avail - n) ~bad frame
    end
    else if took > 0 then begin
      discard p;
      parse p r (avail - n) ~bad frame
    end
  end

let feed p r ~bad frame = parse p r (Mbuf.remaining r) ~bad frame
