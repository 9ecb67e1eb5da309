open Dht_hashspace

let errf fmt = Format.asprintf fmt

(* ------------------------------------------------------------------ *)
(* Per-group predicates, shared with the snode runtime's battery        *)

let group_counts ~pmin ~group counts =
  let pmax = 2 * pmin in
  let g4 =
    List.filter_map
      (fun (id, c) ->
        if c < pmin || c > pmax then
          Some
            (errf "G4: group %a vnode %a holds %d partitions, outside [%d, %d]"
               Group_id.pp group Vnode_id.pp id c pmin pmax)
        else None)
      counts
  in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  let g2 =
    if Params.is_power_of_two total then []
    else
      [ errf "G2: group %a has %d partitions (not a power of two)" Group_id.pp
          group total ]
  in
  (* G5/G5', in the form that survives removals: a power-of-two population
     is perfectly balanced (all counts equal). Creation-only histories
     additionally have that common count equal to Pmin (covered by the
     creation tests); after removals the common count may sit deeper. *)
  let vg = List.length counts in
  let g5 =
    match counts with
    | (_, c0) :: rest
      when Params.is_power_of_two vg && List.exists (fun (_, c) -> c <> c0) rest
      ->
        [ errf "G5: group %a has Vg=%d, a power of two, but uneven counts"
            Group_id.pp group vg ]
    | _ -> []
  in
  g4 @ g2 @ g5

let member ~group ~level ~id ~count ~member_of spans =
  let n = List.length spans in
  (if n <> count then
     [ errf "count: vnode %a registered with %d partitions, owns %d"
         Vnode_id.pp id count n ]
   else [])
  @ (if not (Group_id.equal member_of group) then
       [ errf "group: vnode %a has group field %a, listed in %a" Vnode_id.pp
           id Group_id.pp member_of Group_id.pp group ]
     else [])
  @ List.filter_map
      (fun s ->
        if Span.level s <> level then
          Some
            (errf "G3: vnode %a holds %a, group %a is at level %d" Vnode_id.pp
               id Span.pp s Group_id.pp group level)
        else None)
      spans

let group_size ~vmin ~vmax ~sole ~group vg =
  if sole then
    if vg < 1 || vg > vmax then
      [ errf "L2: sole group %a has Vg=%d outside [1, %d]" Group_id.pp group vg
          vmax ]
    else []
  else if vg < vmin || vg > vmax then
    [ errf "L2: group %a has Vg=%d outside [%d, %d]" Group_id.pp group vg vmin
        vmax ]
  else []

(* ------------------------------------------------------------------ *)
(* Model checks                                                         *)

let check_balancer b =
  let pmin = (Balancer.params b).Params.pmin in
  let group = Balancer.group b and level = Balancer.level b in
  let members = Array.to_list (Balancer.vnodes b) in
  let counts = List.map (fun v -> (v.Vnode.id, v.Vnode.count)) members in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  List.concat_map
    (fun v ->
      member ~group ~level ~id:v.Vnode.id ~count:v.Vnode.count
        ~member_of:v.Vnode.group v.Vnode.spans)
    members
  @ (if total <> Balancer.total_partitions b then
       [ errf "Pg bookkeeping: cached %d <> recomputed %d"
           (Balancer.total_partitions b) total ]
     else [])
  @ group_counts ~pmin ~group counts

let check_map space map owners =
  let issues = ref [] in
  let fail msg = issues := msg :: !issues in
  (match Coverage.check space (Point_map.spans map) with
  | Ok () -> ()
  | Error e -> fail (errf "G1: routing map does not tile R_h: %a" Coverage.pp_error e));
  (* Every mapped span must be held by its owner, and conversely every span
     owned by a vnode must route back to it. *)
  Point_map.iter map (fun s v ->
      if not (List.exists (Span.equal s) v.Vnode.spans) then
        fail (errf "map: %a routed to %a which does not own it" Span.pp s
                Vnode_id.pp v.Vnode.id));
  Array.iter
    (fun v ->
      List.iter
        (fun s ->
          match Point_map.find_point map (Span.start space s) with
          | s', v' when Span.equal s s' && v' == v -> ()
          | _ -> fail (errf "map: %a owned by %a not routed to it" Span.pp s
                         Vnode_id.pp v.Vnode.id)
          | exception Not_found ->
              fail (errf "map: %a owned by %a missing from map" Span.pp s
                      Vnode_id.pp v.Vnode.id))
        v.Vnode.spans)
    owners;
  List.rev !issues

let result_of = function [] -> Ok () | issues -> Error issues

let check_global dht =
  let params = Global_dht.params dht in
  let issues =
    check_balancer (Global_dht.balancer dht)
    @ check_map params.Params.space (Global_dht.map dht) (Global_dht.vnodes dht)
  in
  result_of issues

let check_local dht =
  let params = Local_dht.params dht in
  let vmin = params.Params.vmin and vmax = Params.vmax params in
  let balancers = Local_dht.groups dht in
  let issues = ref [] in
  let fail msg = issues := msg :: !issues in
  List.iter (fun b -> issues := !issues @ check_balancer b) balancers;
  issues :=
    !issues
    @ check_map params.Params.space (Local_dht.map dht) (Local_dht.vnodes dht);
  (* L2, with the paper's exception: while group 0 is alone, 1 <= V0 <= Vmax. *)
  let sole = List.length balancers = 1 in
  List.iter
    (fun b ->
      List.iter fail
        (group_size ~vmin ~vmax ~sole ~group:(Balancer.group b)
           (Balancer.vnode_count b)))
    balancers;
  (* L1: groups partition the vnode set. Group-id keys are unique by
     construction of the map; check vnode ids are globally unique and the
     total matches. *)
  let all = Local_dht.vnodes dht in
  let seen = Hashtbl.create (Array.length all) in
  Array.iter
    (fun v ->
      let key = Vnode_id.to_string v.Vnode.id in
      if Hashtbl.mem seen key then
        fail (errf "L1: vnode %a appears in more than one group" Vnode_id.pp
                v.Vnode.id)
      else Hashtbl.add seen key ())
    all;
  if Array.length all <> Local_dht.vnode_count dht then
    fail (errf "L1: %d vnodes in groups <> %d created" (Array.length all)
            (Local_dht.vnode_count dht));
  (* Quota conservation. *)
  let sum_qv = Dht_stats.Descriptive.sum (Local_dht.quotas dht) in
  if abs_float (sum_qv -. 1.) > 1e-9 then
    fail (errf "quotas: sum Qv = %.12f <> 1" sum_qv);
  let sum_qg = Dht_stats.Descriptive.sum (Local_dht.group_quotas dht) in
  if abs_float (sum_qg -. 1.) > 1e-9 then
    fail (errf "quotas: sum Qg = %.12f <> 1" sum_qg);
  result_of (List.rev !issues)
