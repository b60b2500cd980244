(* Compiled-plan memoization.  Plan compilation is pure in the
   structure of its inputs, so the cache key is a canonical string of
   everything the compiler reads: the MINT subgraph reachable from the
   roots (cycles cut by serial numbers), the PRES trees, the named
   presentations, the encoding, and the compiler options.  The full key
   string — not a hash of it — indexes the table, so collisions cannot
   alias two different plans.  Keys are recomputed per lookup, which
   keeps mutation via Mint.set safe: a changed graph is a changed key. *)

(* ------------------------------------------------------------------ *)
(* Generic named caches with a stats registry                           *)
(* ------------------------------------------------------------------ *)

(* One stats record serves every cache — encode plans, decode plans,
   and the stub engine's closure caches — so reports (bench warm-cache
   sections) can render them uniformly: hit rate AND eviction pressure
   for both sides, not hit rates on one and nothing on the other.
   [evictions] counts entries lost; [resets] counts the overflow events
   that lost them, so one mass-eviction is distinguishable from
   sustained churn.  [promotions] counts in-place re-installs of an
   already-cached entry (tier promotion re-binding a key to its staged
   closure); they are deliberately not lookups, so they leave hits,
   misses and the hit rate untouched. *)
type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  resets : int;
  promotions : int;
}

let hit_rate st =
  float_of_int st.hits /. float_of_int (max 1 (st.hits + st.misses))

type 'a t = {
  name : string;
  tbl : (string, 'a) Hashtbl.t;
  max_entries : int;
  (* per-key call counts driving tier promotion: kept outside [tbl] so
     an overflow reset does not zero a plan's hotness — a hot plan that
     gets recompiled after churn re-promotes immediately *)
  hot : (string, int ref) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable resets : int;
  mutable promotions : int;
}

let registry : (string * (unit -> stats) * (unit -> unit)) list ref = ref []

let cache_stats c =
  {
    hits = c.hits;
    misses = c.misses;
    entries = Hashtbl.length c.tbl;
    evictions = c.evictions;
    resets = c.resets;
    promotions = c.promotions;
  }

let create ~name ?(max_entries = 512) () =
  let c =
    {
      name;
      tbl = Hashtbl.create 64;
      max_entries;
      hot = Hashtbl.create 64;
      hits = 0;
      misses = 0;
      evictions = 0;
      resets = 0;
      promotions = 0;
    }
  in
  let reset () =
    Hashtbl.reset c.tbl;
    Hashtbl.reset c.hot;
    c.hits <- 0;
    c.misses <- 0;
    c.evictions <- 0;
    c.resets <- 0;
    c.promotions <- 0
  in
  registry := !registry @ [ (name, (fun () -> cache_stats c), reset) ];
  c

let find_or_add c key build =
  match Hashtbl.find_opt c.tbl key with
  | Some v ->
      c.hits <- c.hits + 1;
      v
  | None ->
      c.misses <- c.misses + 1;
      let v = build () in
      (* overflow policy: drop everything rather than track recency —
         stub compilation working sets are tiny and the rebuild is the
         cached computation itself.  Every dropped entry counts as an
         eviction so the pressure is visible in reports. *)
      if Hashtbl.length c.tbl >= c.max_entries then begin
        c.evictions <- c.evictions + Hashtbl.length c.tbl;
        c.resets <- c.resets + 1;
        Hashtbl.reset c.tbl
      end;
      Hashtbl.add c.tbl key v;
      v

(* Per-key promotion counter.  The ref is what staged-promotion
   wrappers capture at compile time, so the count keeps accumulating
   across closure-cache evictions (the whole point of keeping [hot]
   outside the value table).  Bounded separately from [max_entries]:
   churny keys that never get hot are dropped in bulk, which at worst
   delays a re-compiled plan's promotion by one threshold's worth of
   calls. *)
let max_hot_entries = 4096

let hotness c key =
  match Hashtbl.find_opt c.hot key with
  | Some r -> r
  | None ->
      if Hashtbl.length c.hot >= max_hot_entries then Hashtbl.reset c.hot;
      let r = ref 0 in
      Hashtbl.add c.hot key r;
      r

(* Re-install a (possibly rewritten) value for a key that is already
   cached.  This is tier promotion's hook: it must NOT read as cache
   traffic — a promotion is not a lookup, and counting it as a hit
   would inflate [hit_rate] (pinned by test_serve's shadow model). *)
let promote c key v =
  Hashtbl.replace c.tbl key v;
  c.promotions <- c.promotions + 1

let all_stats () = List.map (fun (n, st, _) -> (n, st ())) !registry
let reset_all () = List.iter (fun (_, _, reset) -> reset ()) !registry

(* Re-export the whole cache registry through the metrics registry as
   one pull-based probe: caches created after this still appear, since
   the probe walks [registry] at snapshot time. *)
let () =
  Obs.probe "cache" (fun () ->
      List.concat_map
        (fun (name, (st : stats)) ->
          [
            (name ^ ".hits", float_of_int st.hits);
            (name ^ ".misses", float_of_int st.misses);
            (name ^ ".entries", float_of_int st.entries);
            (name ^ ".evictions", float_of_int st.evictions);
            (name ^ ".resets", float_of_int st.resets);
            (name ^ ".promotions", float_of_int st.promotions);
            (name ^ ".hit_rate", hit_rate st);
          ])
        (all_stats ()))

(* ------------------------------------------------------------------ *)
(* Structural fingerprints                                              *)
(* ------------------------------------------------------------------ *)

type fp = {
  buf : Buffer.t;
  mint : Mint.t;
  seen : (int, int) Hashtbl.t; (* mint idx -> serial number *)
  mutable next : int;
}

let fp_int fp n =
  Buffer.add_char fp.buf '#';
  Decimal.add_int fp.buf n

(* every embedded string is length-prefixed so concatenations of
   different fields can never collide *)
let fp_str fp s =
  fp_int fp (String.length s);
  Buffer.add_char fp.buf ':';
  Buffer.add_string fp.buf s

let fp_tag fp s =
  Buffer.add_char fp.buf ' ';
  fp_str fp s

let fp_kind fp (k : Encoding.atom_kind) =
  match k with
  | Encoding.Kbool -> Buffer.add_string fp.buf "kb"
  | Encoding.Kchar -> Buffer.add_string fp.buf "kc"
  | Encoding.Kint { bits; signed } ->
      Buffer.add_string fp.buf (if signed then "ki" else "ku");
      fp_int fp bits
  | Encoding.Kfloat { bits } ->
      Buffer.add_string fp.buf "kf";
      fp_int fp bits

let fp_const fp (c : Mint.const) =
  match c with
  | Mint.Cint n ->
      Buffer.add_char fp.buf 'I';
      fp_str fp (Int64.to_string n)
  | Mint.Cbool b -> Buffer.add_string fp.buf (if b then "B1" else "B0")
  | Mint.Cchar c ->
      Buffer.add_char fp.buf 'C';
      fp_int fp (Char.code c)
  | Mint.Cstring s ->
      Buffer.add_char fp.buf 'S';
      fp_str fp s

let rec fp_mint fp idx =
  let i = (idx : Mint.idx :> int) in
  match Hashtbl.find_opt fp.seen i with
  | Some serial ->
      Buffer.add_char fp.buf '@';
      fp_int fp serial
  | None ->
      let serial = fp.next in
      fp.next <- serial + 1;
      Hashtbl.add fp.seen i serial;
      (match Mint.get fp.mint idx with
      | Mint.Void -> Buffer.add_char fp.buf 'v'
      | Mint.Bool -> Buffer.add_char fp.buf 'b'
      | Mint.Char8 -> Buffer.add_char fp.buf 'c'
      | Mint.Int { bits; signed } ->
          Buffer.add_char fp.buf (if signed then 'i' else 'u');
          fp_int fp bits
      | Mint.Float { bits } ->
          Buffer.add_char fp.buf 'f';
          fp_int fp bits
      | Mint.Array { elem; min_len; max_len } ->
          Buffer.add_char fp.buf 'a';
          fp_int fp min_len;
          fp_int fp (match max_len with None -> -1 | Some m -> m);
          fp_mint fp elem
      | Mint.Struct fields ->
          Buffer.add_char fp.buf 's';
          fp_int fp (List.length fields);
          List.iter
            (fun (name, fidx) ->
              fp_str fp name;
              fp_mint fp fidx)
            fields
      | Mint.Union { discrim; cases; default } ->
          Buffer.add_char fp.buf 'U';
          fp_mint fp discrim;
          fp_int fp (List.length cases);
          List.iter
            (fun (c : Mint.case) ->
              fp_const fp c.Mint.c_const;
              fp_mint fp c.Mint.c_body)
            cases;
          (match default with
          | None -> Buffer.add_char fp.buf '-'
          | Some d ->
              Buffer.add_char fp.buf 'd';
              fp_mint fp d))

let rec fp_pres fp (p : Pres.t) =
  match p with
  | Pres.Direct -> Buffer.add_string fp.buf "pD"
  | Pres.Enum_direct -> Buffer.add_string fp.buf "pE"
  | Pres.Fixed_array sub ->
      Buffer.add_string fp.buf "pF";
      fp_pres fp sub
  | Pres.Terminated_string -> Buffer.add_string fp.buf "pT"
  | Pres.Terminated_string_len { len_param } ->
      Buffer.add_string fp.buf "pL";
      fp_str fp len_param
  | Pres.Counted_seq { len_field; buf_field; elem } ->
      Buffer.add_string fp.buf "pC";
      fp_str fp len_field;
      fp_str fp buf_field;
      fp_pres fp elem
  | Pres.Opt_ptr sub ->
      Buffer.add_string fp.buf "pO";
      fp_pres fp sub
  | Pres.Struct arms ->
      Buffer.add_string fp.buf "pS";
      fp_int fp (List.length arms);
      List.iter
        (fun (name, sub) ->
          fp_str fp name;
          fp_pres fp sub)
        arms
  | Pres.Union { discrim_field; union_field; arms; default_arm } ->
      Buffer.add_string fp.buf "pU";
      fp_str fp discrim_field;
      fp_str fp union_field;
      fp_int fp (List.length arms);
      List.iter
        (fun (name, sub) ->
          fp_str fp name;
          fp_pres fp sub)
        arms;
      (match default_arm with
      | None -> Buffer.add_char fp.buf '-'
      | Some (name, sub) ->
          Buffer.add_char fp.buf 'd';
          fp_str fp name;
          fp_pres fp sub)
  | Pres.Void -> Buffer.add_string fp.buf "pV"
  | Pres.Ref name ->
      Buffer.add_string fp.buf "pR";
      fp_str fp name

let fp_type fp idx pres =
  fp_mint fp idx;
  fp_pres fp pres

let rec fp_rv fp (rv : Mplan.rv) =
  match rv with
  | Mplan.Rparam { index; name; deref } ->
      Buffer.add_string fp.buf (if deref then "rP*" else "rP");
      fp_int fp index;
      fp_str fp name
  | Mplan.Rfield { base; index; member } ->
      Buffer.add_string fp.buf "rF";
      fp_int fp index;
      fp_str fp member;
      fp_rv fp base
  | Mplan.Rvar i ->
      Buffer.add_string fp.buf "rV";
      fp_int fp i
  | Mplan.Rarm { base; case; member; union_field } ->
      Buffer.add_string fp.buf "rA";
      fp_int fp case;
      fp_str fp member;
      fp_str fp union_field;
      fp_rv fp base
  | Mplan.Ropt base ->
      Buffer.add_string fp.buf "rO";
      fp_rv fp base
  | Mplan.Rdiscrim { base; member } ->
      Buffer.add_string fp.buf "rD";
      fp_str fp member;
      fp_rv fp base

let fp_root fp (root : Plan_compile.root) =
  match root with
  | Plan_compile.Rconst_int (n, kind) ->
      Buffer.add_string fp.buf " Ri";
      fp_str fp (Int64.to_string n);
      fp_kind fp kind
  | Plan_compile.Rconst_str s ->
      Buffer.add_string fp.buf " Rs";
      fp_str fp s
  | Plan_compile.Rvalue (rv, idx, pres) ->
      Buffer.add_string fp.buf " Rv";
      fp_rv fp rv;
      fp_type fp idx pres

(* The four encodings form a closed set distinguished by name; the
   scalar fields ride along for robustness against future variants. *)
let fp_enc fp (enc : Encoding.t) =
  fp_str fp enc.Encoding.name;
  fp_int fp
    ((if enc.Encoding.big_endian then 1 else 0)
    + (if enc.Encoding.string_nul then 2 else 0)
    + if enc.Encoding.typed_headers then 4 else 0);
  fp_int fp enc.Encoding.pad_unit;
  fp_int fp enc.Encoding.max_align;
  fp_int fp enc.Encoding.granularity;
  fp_int fp enc.Encoding.len_prefix.Encoding.size;
  fp_int fp enc.Encoding.len_prefix.Encoding.align

let fp_create ~enc ~mint ~named () =
  let fp =
    { buf = Buffer.create 256; mint; seen = Hashtbl.create 32; next = 0 }
  in
  fp_enc fp enc;
  fp_int fp (List.length named);
  List.iter
    (fun (name, (idx, pres)) ->
      fp_str fp name;
      fp_type fp idx pres)
    named;
  fp

let fp_contents fp = Buffer.contents fp.buf

(* ------------------------------------------------------------------ *)
(* The shared compiled-plan cache                                       *)
(* ------------------------------------------------------------------ *)

let plans : Plan_compile.plan t = create ~name:"plan" ()

let plan_key ~enc ~mint ~named ?start ?(unroll_limit = 64) ?(chunked = true)
    ~config ~sg ~sg_threshold roots =
  let fp = fp_create ~enc ~mint ~named () in
  (match start with
  | None -> Buffer.add_char fp.buf '-'
  | Some (base, off) ->
      fp_int fp base;
      fp_int fp off);
  fp_int fp unroll_limit;
  fp_int fp (if chunked then 1 else 0);
  (* the pass selection changes the plan (verify does not, and is
     deliberately left out of the key) *)
  fp_str fp (Opt_config.selection_fingerprint config);
  (* scatter-gather options change the plan's structure (Put_blit
     splitting, borrow marks), so they are part of the key *)
  fp_int fp (if sg then 1 else 0);
  fp_int fp sg_threshold;
  List.iter (fp_root fp) roots;
  fp_contents fp

let plan ~enc ~mint ~named ?start ?unroll_limit ?chunked ?config ?sg
    ?sg_threshold roots =
  (* resolve the Mbuf-global defaults now so the key and the compile see
     the same values even if the globals change between calls *)
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let sg = match sg with Some b -> b | None -> Mbuf.sg_enabled () in
  let sg_threshold =
    match sg_threshold with Some n -> n | None -> Mbuf.borrow_threshold ()
  in
  let key =
    plan_key ~enc ~mint ~named ?start ?unroll_limit ?chunked ~config ~sg
      ~sg_threshold roots
  in
  find_or_add plans key (fun () ->
      Obs_trace.with_span ~cat:"opt" "plan-compile" (fun () ->
          let p =
            Plan_compile.compile ~enc ~mint ~named ?start ?unroll_limit
              ?chunked ~sg ~sg_threshold roots
          in
          Pass.run_encode ~config p))

(* ------------------------------------------------------------------ *)
(* The shared compiled-decode-plan cache                                *)
(* ------------------------------------------------------------------ *)

let dplans : Dplan.plan t = create ~name:"dplan" ()

let fp_droot fp (droot : Dplan_compile.droot) =
  match droot with
  | Dplan_compile.Dconst_int (n, kind) ->
      Buffer.add_string fp.buf " Di";
      fp_str fp (Int64.to_string n);
      fp_kind fp kind
  | Dplan_compile.Dconst_str s ->
      Buffer.add_string fp.buf " Ds";
      fp_str fp s
  | Dplan_compile.Dvalue (idx, pres) ->
      Buffer.add_string fp.buf " Dv";
      fp_type fp idx pres

let dplan_key ~enc ~mint ~named ?start ?(chunked = true) ~config ~views
    ~view_threshold droots =
  let fp = fp_create ~enc ~mint ~named () in
  (match start with
  | None -> Buffer.add_char fp.buf '-'
  | Some (base, off) ->
      fp_int fp base;
      fp_int fp off);
  fp_int fp (if chunked then 1 else 0);
  (* as for [plan_key]: the selection is keyed, the verify flag is not *)
  fp_str fp (Opt_config.selection_fingerprint config);
  (* view options change the plan's structure (byte-run splitting, view
     marks), so they are part of the key *)
  fp_int fp (if views then 1 else 0);
  fp_int fp view_threshold;
  List.iter (fp_droot fp) droots;
  fp_contents fp

let dplan ~enc ~mint ~named ?start ?chunked ?config ?views ?view_threshold
    droots =
  (* as for [plan]: resolve the Mbuf-global defaults now so the key and
     the compile agree even if the globals change between calls *)
  let config =
    match config with Some c -> c | None -> Opt_config.default ()
  in
  let views = match views with Some b -> b | None -> false in
  let view_threshold =
    match view_threshold with
    | Some n -> n
    | None -> Mbuf.borrow_threshold ()
  in
  let key =
    dplan_key ~enc ~mint ~named ?start ?chunked ~config ~views
      ~view_threshold droots
  in
  find_or_add dplans key (fun () ->
      Obs_trace.with_span ~cat:"opt" "dplan-compile" (fun () ->
          let p =
            Dplan_compile.compile ~enc ~mint ~named ?start ?chunked ~views
              ~view_threshold droots
          in
          Pass.run_decode ~config p))
