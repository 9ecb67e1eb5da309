(* Point-ordered cell tables: a model-based property against a [Hashtbl]
   model across bucket splits and collapses (find, add, remove, range
   iteration at bucket boundaries and the ends of the space, keys sharing
   a bucket or a point), and runtime tests that range reads over a churned replicated
   cluster return exactly what a brute-force filter of the cluster's
   view holds, with the store audit clean and the leg scans confined to
   their buckets. *)

open Dht_hashspace
module Cells = Dht_snode.Cells
module Runtime = Dht_snode.Runtime
module Hash = Dht_hashes.Hash
module Rng = Dht_prng.Rng

let check = Alcotest.check

(* --- model-based property --- *)

(* A 10-bit space: 300 keys split buckets down every level (64-point,
   4-point and single-point buckets), removals collapse them again, and
   the generated ranges hit bucket boundaries at every level. *)
let small = Space.create ~bits:10
let size = Space.size small
let pool = 300

(* Key [i]'s point. Key 0 sits at point 0 and key 1 at [size - 1];
   every seventh key collides exactly with its predecessor's point and
   every fifth lands next to it, so chains hold same-point and
   same-bucket keys at every table size. *)
let points =
  let a = Array.init pool (fun i -> Hash.int small i) in
  a.(0) <- 0;
  a.(1) <- size - 1;
  for i = 2 to pool - 1 do
    if i mod 7 = 3 then a.(i) <- a.(i - 1)
    else if i mod 5 = 4 then a.(i) <- a.(i - 1) lxor 1
  done;
  a

let key i = Printf.sprintf "k%03d" i

type op = Add of int * int | Remove of int | Find of int | Range of int * int

let pp_op = function
  | Add (i, v) -> Printf.sprintf "add %s=%d" (key i) v
  | Remove i -> Printf.sprintf "remove %s" (key i)
  | Find i -> Printf.sprintf "find %s" (key i)
  | Range (lo, hi) -> Printf.sprintf "range [%d, %d)" lo hi

(* Range bounds: anywhere (a little outside the space included), on a
   power-of-two boundary give or take one — bucket edges at every table
   size — or at the ends of the space. *)
let gen_bound =
  QCheck.Gen.(
    frequency
      [
        (3, int_range (-4) (size + 4));
        ( 3,
          map3
            (fun k m d -> (m lsl k) + d)
            (int_range 0 10) (int_range 0 16) (int_range (-1) 1) );
        (1, oneofl [ 0; 1; size - 1; size ]);
      ])

let gen_op =
  QCheck.Gen.(
    let idx = int_bound (pool - 1) in
    frequency
      [
        (6, map2 (fun i v -> Add (i, v)) idx (int_bound 1000));
        (2, map (fun i -> Remove i) idx);
        (1, map (fun i -> Find i) idx);
        (1, map2 (fun a b -> Range (min a b, max a b)) gen_bound gen_bound);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 700) gen_op)

let sorted_model model =
  Hashtbl.fold (fun i v acc -> (points.(i), key i, v) :: acc) model []
  |> List.sort compare

let slots_of l = List.map (fun s -> (Cells.point s, Cells.key s, Cells.cell s)) l

let prop_model =
  QCheck.Test.make
    ~name:"cells: find/add/remove/iter_range agree with a Hashtbl model \
           across bucket splits and collapses"
    ~count:200 arb_ops (fun ops ->
      let t = Cells.create small in
      let model = Hashtbl.create 64 in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      List.iter
        (fun op ->
          match op with
          | Add (i, v) ->
              Cells.add t ~point:points.(i) ~key:(key i) v;
              Hashtbl.replace model i v
          | Remove i ->
              Cells.remove t ~point:points.(i) ~key:(key i);
              Hashtbl.remove model i
          | Find i ->
              let got =
                Option.map
                  Cells.cell
                  (Cells.find t ~point:points.(i) ~key:(key i))
              in
              if got <> Hashtbl.find_opt model i then fail "%s disagrees" (pp_op op)
          | Range (lo, hi) ->
              let got = ref [] in
              let scan = Cells.scan () in
              Cells.iter_range ~scan t ~lo ~hi (fun s -> got := s :: !got);
              let got = slots_of (List.rev !got) in
              let want =
                List.filter (fun (p, _, _) -> p >= lo && p < hi) (sorted_model model)
              in
              if got <> want then
                fail "%s: %d slots, model has %d" (pp_op op) (List.length got)
                  (List.length want);
              if scan.Cells.examined < List.length got then
                fail "%s: examined %d < returned %d" (pp_op op)
                  scan.Cells.examined (List.length got);
              match Cells.check t with
              | [] -> ()
              | l -> fail "after %s: %s" (pp_op op) (String.concat "; " l))
        ops;
      (match Cells.check t with
      | [] -> ()
      | l -> fail "check: %s" (String.concat "; " l));
      if Cells.length t <> Hashtbl.length model then
        fail "length %d, model %d" (Cells.length t) (Hashtbl.length model);
      let all = slots_of (List.rev (Cells.fold (fun s acc -> s :: acc) t [])) in
      if all <> sorted_model model then fail "iteration is not in (point, key) order";
      true)

let test_bounds () =
  (* The ends of the space, and bounds outside it, on a table that has
     split down to single-point buckets: keys at point 0 and at
     [size - 1] are found by the ranges that touch them and only those. *)
  let t = Cells.create small in
  for i = 0 to pool - 1 do
    Cells.add t ~point:points.(i) ~key:(key i) i
  done;
  check Alcotest.(list string) "consistent after splits" [] (Cells.check t);
  let keys ~lo ~hi =
    let acc = ref [] in
    Cells.iter_range t ~lo ~hi (fun s -> acc := Cells.key s :: !acc);
    List.rev !acc
  in
  let expect ~lo ~hi =
    List.init pool (fun i -> (points.(i), key i))
    |> List.filter (fun (p, _) -> p >= lo && p < hi)
    |> List.sort compare |> List.map snd
  in
  List.iter
    (fun (lo, hi) ->
      check Alcotest.(list string) (Printf.sprintf "[%d, %d)" lo hi)
        (expect ~lo ~hi) (keys ~lo ~hi))
    [ (0, 1); (size - 1, size); (0, size); (63, 65); (64, 128); (5, 5) ];
  check Alcotest.bool "point 0 held" true (List.mem (key 0) (keys ~lo:0 ~hi:1));
  check Alcotest.bool "size - 1 held" true
    (List.mem (key 1) (keys ~lo:(size - 1) ~hi:size));
  check Alcotest.int "bounds outside the space are clipped" pool
    (List.length (keys ~lo:(-10) ~hi:(size + 10)));
  Cells.add t ~point:points.(7) ~key:(key 7) (-1);
  check Alcotest.int "overwrite keeps the count" pool (Cells.length t);
  check Alcotest.(option int) "overwrite in place" (Some (-1))
    (Option.map Cells.cell (Cells.find t ~point:points.(7) ~key:(key 7)));
  check Alcotest.(option int) "same point, other key" None
    (Option.map Cells.cell (Cells.find t ~point:points.(7) ~key:"absent"));
  Alcotest.check_raises "point outside the space"
    (Invalid_argument "Cells.add: point outside the space") (fun () ->
      Cells.add t ~point:size ~key:"x" 0);
  (* Draining the table collapses every node back into one empty chain. *)
  for i = 0 to pool - 1 do
    Cells.remove t ~point:points.(i) ~key:(key i);
    if i mod 37 = 0 then
      check Alcotest.(list string) "consistent while draining" [] (Cells.check t)
  done;
  Cells.remove t ~point:points.(3) ~key:(key 3);
  check Alcotest.int "drained" 0 (Cells.length t);
  check Alcotest.(list string) "consistent when empty" [] (Cells.check t);
  check Alcotest.(list string) "nothing left in range" [] (keys ~lo:0 ~hi:size)

(* --- runtime: range reads on a churned replicated cluster --- *)

(* Every owner-held cell whose key hashes into [lo, hi), by key — the
   authoritative copies a brute-force scan of the view finds. *)
let view_filter rt ~lo ~hi =
  let space = Runtime.space rt in
  List.concat_map
    (fun (sn : Runtime.View.snode_view) ->
      List.concat_map (fun (vn : Runtime.View.vnode_view) -> vn.data) sn.vnodes)
    (Runtime.view rt).Runtime.View.snodes
  |> List.filter (fun (k, _) ->
         let p = Hash.string space k in
         p >= lo && p < hi)
  |> List.sort compare

let churned_cluster seed =
  let open Dht_core in
  let snodes = 6 in
  let rt =
    Runtime.create ~pmin:4
      ~approach:(Runtime.Local { vmin = 2 })
      ~rfactor:3 ~read_quorum:2 ~write_quorum:2 ~snodes ~seed ()
  in
  let rng = Rng.of_int seed in
  let put i =
    Runtime.put rt ~via:(i mod snodes)
      ~key:(Printf.sprintf "key-%d" i)
      ~value:(Printf.sprintf "v%d-%d" seed i)
      ()
  in
  (* Growth (splits and transfers) interleaved with writes. *)
  for n = 1 to 9 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(n mod snodes) ~vnode:(n / snodes))
      ();
    for i = 0 to 39 do
      put ((n * 40) + i)
    done;
    Runtime.run rt
  done;
  (* A crash window under writes (hinted handoff), then restart. *)
  let victim = 1 + Rng.int rng (snodes - 1) in
  Runtime.crash_snode rt victim;
  for i = 400 to 479 do
    put i
  done;
  Runtime.run rt;
  Runtime.restart_snode rt victim;
  Runtime.run rt;
  (* Departures (transfers to survivors, absorbing replica copies), more
     growth, overwrites, then anti-entropy (the orphan sweep homes cells
     whose replica sets moved). *)
  let left = ref 0 in
  Runtime.remove_vnode rt ~id:(Vnode_id.make ~snode:3 ~vnode:0) (fun ok ->
      if ok then incr left);
  Runtime.run rt;
  for n = 10 to 13 do
    Runtime.create_vnode rt
      ~id:(Vnode_id.make ~snode:(n mod snodes) ~vnode:(n / snodes))
      ()
  done;
  for i = 0 to 99 do
    put (i * 3)
  done;
  Runtime.run rt;
  Runtime.anti_entropy rt;
  Runtime.run rt;
  (rt, !left)

let range rt ~via ~lo ~hi =
  let got = ref None in
  Runtime.range_get rt ~via ~lo ~hi (fun r -> got := Some r);
  Runtime.run rt;
  match !got with Some r -> r | None -> Alcotest.fail "range_get never completed"

let test_range_matches_view () =
  let orphans = ref 0 and removals = ref 0 in
  List.iter
    (fun seed ->
      let rt, left = churned_cluster seed in
      removals := !removals + left;
      orphans := !orphans + (Runtime.repl_stats rt).Runtime.orphans;
      check Alcotest.(list string)
        (Printf.sprintf "seed %d: store audit" seed)
        [] (Runtime.store_audit rt);
      (match Runtime.audit rt with
      | Ok () -> ()
      | Error l -> Alcotest.failf "seed %d: audit: %s" seed (String.concat "; " l));
      let space = Runtime.space rt in
      let size = Space.size space in
      let rng = Rng.of_int (seed + 100) in
      let spans = List.map fst (List.hd (Runtime.view rt).Runtime.View.snodes).rmap in
      (* Whole space, the ends of the space, and for every replicated
         span: the span itself (one leg), its lower half (a leg inside a
         partition), and an interval straddling its end. *)
      let fixed =
        [ (0, size); (0, 1); (size - 1, size); (0, 0) ]
        @ List.concat_map
            (fun sp ->
              let s = Span.start space sp and e = Span.stop space sp in
              [ (s, e); (s, s + ((e - s) / 2)); (s + 1, min size (e + ((e - s) / 3))) ])
            spans
      in
      let random =
        List.init 20 (fun _ ->
            let lo = Rng.int rng size in
            (lo, lo + 1 + Rng.int rng (size - lo)))
      in
      List.iteri
        (fun q (lo, hi) ->
          let got = range rt ~via:(q mod Runtime.snode_count rt) ~lo ~hi in
          let want = view_filter rt ~lo ~hi in
          if got <> want then
            Alcotest.failf "seed %d: range [%d, %d): %d cells, view holds %d" seed lo
              hi (List.length got) (List.length want))
        (fixed @ random);
      (* The legs read their own buckets only: strays from the boundary
         buckets stay within the buckets visited. *)
      let rs = Runtime.range_stats rt in
      if rs.Runtime.rs_examined > (2 * rs.Runtime.rs_returned) + rs.Runtime.rs_buckets
      then
        Alcotest.failf "seed %d: %d slots examined for %d returned over %d buckets"
          seed rs.Runtime.rs_examined rs.Runtime.rs_returned rs.Runtime.rs_buckets)
    [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool "departures completed" true (!removals > 0);
  check Alcotest.bool "orphan sweep exercised" true (!orphans > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model;
    Alcotest.test_case "bounds, overwrite, collisions" `Quick test_bounds;
    Alcotest.test_case "range_get equals a view filter on a churned cluster"
      `Quick test_range_matches_view;
  ]
