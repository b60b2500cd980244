(* Pipeline selection for the plan optimizer.

   A configuration names which registered peephole passes run (all of
   them, none, or an explicit list in registration order) and whether
   the structural verifier runs after each.  It threads from the entry
   points (Stub_opt, Plan_cache, bin/flick, bench) down to Pass.run,
   and its pass selection is serialized into every plan-cache key so
   differently configured pipelines can never alias one plan.

   The verifier flag is deliberately NOT part of cache keys:
   verification never changes the plan, only whether building it can
   fail loudly. *)

type selection = All | Nothing | Only of string list

type t = { selection : selection; verify : bool }

let verify_env () =
  match Sys.getenv_opt "FLICK_VERIFY_PLANS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | Some _ | None -> false

(* Read the environment at each call: tests toggle the variable. *)
let default () = { selection = All; verify = verify_env () }

let all = { selection = All; verify = false }
let none = { selection = Nothing; verify = false }
let only names = { selection = Only names; verify = false }

(* Cache-key serialization of the pass selection.  Pass names never
   contain ','; [Only] keeps the caller's order (selection order does
   not affect which passes run — Pass.select filters the registry in
   registration order — but two spellings keying differently only costs
   a duplicate cache entry, never aliasing). *)
let selection_fingerprint t =
  match t.selection with
  | All -> "all"
  | Nothing -> "none"
  | Only names -> "only:" ^ String.concat "," names

let to_string t =
  Printf.sprintf "%s%s"
    (selection_fingerprint t)
    (if t.verify then "+verify" else "")

(* Benchmark-only: bench/e2e sizes its warm-ups with this constant.
   Nothing in the library reads it; a later benchmark change drops
   it. *)
let stage_threshold () = 32

let of_string s =
  let verify_suffix = "+verify" in
  let s, verify =
    if
      String.length s >= String.length verify_suffix
      && String.sub s
           (String.length s - String.length verify_suffix)
           (String.length verify_suffix)
         = verify_suffix
    then
      (String.sub s 0 (String.length s - String.length verify_suffix), true)
    else (s, false)
  in
  (* accept the canonical [to_string] spelling back: "only:" is
     optional on explicit lists *)
  let only_prefix = "only:" in
  let s =
    if
      String.length s >= String.length only_prefix
      && String.sub s 0 (String.length only_prefix) = only_prefix
    then String.sub s (String.length only_prefix)
           (String.length s - String.length only_prefix)
    else s
  in
  match s with
  | "all" -> Ok { selection = All; verify }
  | "none" -> Ok { selection = Nothing; verify }
  | "" -> Error "empty pass selection"
  | names ->
      Ok { selection = Only (String.split_on_char ',' names); verify }
