open Dht_core
module Runtime = Dht_snode.Runtime

type finding = { inv : string; detail : string }

let pp_finding ppf f = Format.fprintf ppf "%s: %s" f.inv f.detail
let to_strings fs = List.map (Format.asprintf "%a" pp_finding) fs

(* The oracle-model auditor emits "G4: ..."-style messages; lift the prefix
   back out so findings stay addressable by invariant name. *)
let of_message msg =
  match String.index_opt msg ':' with
  | Some i when i > 0 && i < 16 ->
      {
        inv = String.sub msg 0 i;
        detail =
          String.sub msg (i + 1) (String.length msg - i - 1) |> String.trim;
      }
  | Some _ | None -> { inv = "audit"; detail = msg }

let of_messages = List.map of_message

let check_local dht =
  match Audit.check_local dht with Ok () -> [] | Error m -> of_messages m

let check_global dht =
  match Audit.check_global dht with Ok () -> [] | Error m -> of_messages m

(* The runtime battery lives once, in [Dht_snode.View]; these lift its
   messages into findings. *)
let check_snode ~space sn =
  of_messages (Runtime.View.check_snode ~space ~route_cap:0 sn)

let check_view ~space ~pmin ~vmax ~route_cap v =
  of_messages (Runtime.View.check ~space ~pmin ~vmax ~route_cap v)

let check_runtime rt =
  match Runtime.audit rt with Ok () -> [] | Error m -> of_messages m

(* Overload discipline: the degradation layer's queue accounting must
   never drift — every bounded window holds at most [max_inflight] live
   entries and the live counters match the outbox contents. *)
let check_overload rt =
  List.map (fun detail -> { inv = "overload"; detail }) (Runtime.queue_audit rt)

(* Hash-tree consistency: every live snode's snapshot tree must be
   structurally sound and reproduce the flat scan digest for every
   replicated partition span — the predicate that keeps tree frames and
   legacy digests interchangeable on the anti-entropy wire. *)
let check_merkle rt =
  List.map (fun detail -> { inv = "MERKLE"; detail }) (Runtime.merkle_audit rt)

(* Active-balancing audit: a hot-partition swap moves only placement, so
   it must be invisible to the paper's battery — the full runtime
   battery is re-run and any finding is attributed to the run — and it
   must never lose an acked write: every key in [acked] has to resolve at
   its partition owner's authoritative copy ({!Runtime.peek}, the same
   oracle the linearizability checker trusts). Meaningful at quiescence,
   like {!check_runtime}. *)
let check_balance ?(acked = []) rt =
  let battery = check_runtime rt in
  let lost =
    List.filter_map
      (fun key ->
        match Runtime.peek rt ~key with
        | Some _ -> None
        | None ->
            Some
              {
                inv = "balance";
                detail =
                  Printf.sprintf
                    "acked write %S lost: no authoritative copy after \
                     transfers"
                    key;
              })
      acked
  in
  battery @ lost
