open Dht_core
open Dht_hashspace
module Hash = Dht_hashes.Hash
module Vtbl = Hashtbl.Make (Vnode_id)
module Gtbl = Hashtbl.Make (Group_id)

type lpdr_copy = {
  group : Group_id.t;
  level : int;
  epoch : int;
  counts : (Vnode_id.t * int) list;
}

type vnode_view = {
  vid : Vnode_id.t;
  group : Group_id.t;
  spans : Span.t list;
  data : (string * string) list;
}

type snode_view = {
  sid : int;
  up : bool;
  vnodes : vnode_view list;
  lpdrs : lpdr_copy list;
  cache : (Span.t * Vnode_id.t) list;
  rmap : (Span.t * int list) list;
  replicas : (string * string) list;
  hints : int;
}

type t = { at : float; snodes : snode_view list }

(* Structural equality of the logical state; the clock is ignored. *)
let equal a b = a.snodes = b.snodes

let pp ppf v =
  List.iter
    (fun sn ->
      Format.fprintf ppf "snode %d%s: %d vnodes, %d keys, %d replicas, %d hints@."
        sn.sid
        (if sn.up then "" else " (down)")
        (List.length sn.vnodes)
        (List.fold_left (fun acc vn -> acc + List.length vn.data) 0 sn.vnodes)
        (List.length sn.replicas) sn.hints)
    v.snodes

(* ------------------------------------------------------------------ *)
(* The runtime battery                                                  *)

let errf fmt = Format.asprintf fmt

let placement ~space ~sid ~vid spans ~key point =
  if List.exists (fun s -> Span.contains space s point) spans then None
  else
    Some
      (errf "data: snode %d: key %S stored at %a which does not own it" sid key
         Vnode_id.pp vid)

let check_snode ~space ~route_cap sn =
  let coverage inv what spans =
    match Coverage.check space spans with
    | Ok () -> []
    | Error e ->
        [ errf "%s: snode %d %s: %a" inv sn.sid what Coverage.pp_error e ]
  in
  let entries = List.length sn.cache in
  (* A hole in the routing cache would strand routed operations; one in
     the replica map would strand quorum operations. *)
  coverage "cache" "routing cache" (List.map fst sn.cache)
  @ (if route_cap > 0 && entries > route_cap then
       [ errf "cache: snode %d holds %d entries, over the cap %d" sn.sid entries
           route_cap ]
     else [])
  @ coverage "rmap" "replica map" (List.map fst sn.rmap)
  @ List.concat_map
      (fun vn ->
        (if vn.vid.Vnode_id.snode <> sn.sid then
           [ errf "host: %a hosted on snode %d, not the snode its id names"
               Vnode_id.pp vn.vid sn.sid ]
         else [])
        @ List.filter_map
            (fun (key, _) ->
              placement ~space ~sid:sn.sid ~vid:vn.vid vn.spans ~key
                (Hash.string space key))
            vn.data)
      sn.vnodes

let check_groups ~space ~pmin ~vmax v =
  let issues = ref [] in
  let fail msg = issues := msg :: !issues in
  let vnodes = List.concat_map (fun sn -> sn.vnodes) v.snodes in
  (* G1': the union of all local partitions tiles R_h exactly. *)
  (match Coverage.check space (List.concat_map (fun vn -> vn.spans) vnodes) with
  | Ok () -> ()
  | Error e -> fail (errf "G1: partition union: %a" Coverage.pp_error e));
  (* Quota conservation: ΣQv = 1. *)
  let sigma =
    List.fold_left
      (fun acc vn ->
        List.fold_left (fun a s -> a +. Span.quota space s) acc vn.spans)
      0. vnodes
  in
  if Float.abs (sigma -. 1.) > 1e-9 then
    fail (errf "quota: sum Qv = %.12f" sigma);
  (* LPDR copies per group, from live snodes only: a crashed snode's
     durable copy is legitimately stale until its restart re-pull. *)
  let copies = Gtbl.create 16 in
  List.iter
    (fun sn ->
      if sn.up then
        List.iter
          (fun (lp : lpdr_copy) ->
            let cur =
              Option.value ~default:[] (Gtbl.find_opt copies lp.group)
            in
            Gtbl.replace copies lp.group ((sn.sid, lp) :: cur))
          sn.lpdrs)
    v.snodes;
  let groups =
    Gtbl.fold (fun gid cps acc -> (gid, List.rev cps) :: acc) copies []
    |> List.sort (fun (a, _) (b, _) -> Group_id.compare a b)
  in
  let by_vid = Vtbl.create 64 in
  List.iter (fun vn -> Vtbl.replace by_vid vn.vid vn) vnodes;
  let listed = Vtbl.create 64 in
  let sole = List.length groups = 1 in
  List.iter
    (fun (group, cps) ->
      match cps with
      | [] -> ()
      | (_, (ref_lp : lpdr_copy)) :: rest ->
          List.iter
            (fun (sid, (lp : lpdr_copy)) ->
              if
                lp.level <> ref_lp.level || lp.epoch <> ref_lp.epoch
                || lp.counts <> ref_lp.counts
              then
                fail
                  (errf "LPDR: group %a: snode %d holds a divergent copy"
                     Group_id.pp group sid))
            rest;
          List.iter fail
            (Audit.group_size ~vmin:(vmax / 2) ~vmax ~sole ~group
               (List.length ref_lp.counts));
          List.iter fail (Audit.group_counts ~pmin ~group ref_lp.counts);
          List.iter
            (fun (id, count) ->
              Vtbl.replace listed id
                (1 + Option.value ~default:0 (Vtbl.find_opt listed id));
              match Vtbl.find_opt by_vid id with
              | None ->
                  fail
                    (errf "L1: %a in LPDR of %a but hosted nowhere" Vnode_id.pp
                       id Group_id.pp group)
              | Some vn ->
                  List.iter fail
                    (Audit.member ~group ~level:ref_lp.level ~id ~count
                       ~member_of:vn.group vn.spans))
            ref_lp.counts)
    groups;
  (* L1 (other direction): every hosted vnode is listed in exactly one
     live group's LPDR. *)
  List.iter
    (fun vn ->
      match Vtbl.find_opt listed vn.vid with
      | Some 1 -> ()
      | None ->
          fail
            (errf "L1: %a hosted but listed in no group's LPDR" Vnode_id.pp
               vn.vid)
      | Some n ->
          fail
            (errf "L1: %a listed %d times across group LPDRs" Vnode_id.pp
               vn.vid n))
    vnodes;
  List.rev !issues

let check ~space ~pmin ~vmax ~route_cap v =
  check_groups ~space ~pmin ~vmax v
  @ List.concat_map (check_snode ~space ~route_cap) v.snodes
