(* Tests for Dht_hashspace: Space, Span, Coverage, Point_map. *)

module Space = Dht_hashspace.Space
module Span = Dht_hashspace.Span
module Coverage = Dht_hashspace.Coverage
module Point_map = Dht_hashspace.Point_map
module Rng = Dht_prng.Rng

let check = Alcotest.check
let sp = Space.create ~bits:16

let span_testable =
  Alcotest.testable Span.pp Span.equal

(* --- Space --- *)

let test_space_validation () =
  Alcotest.check_raises "bits 0" (Invalid_argument "Space.create: bits outside [1, 62]")
    (fun () -> ignore (Space.create ~bits:0));
  Alcotest.check_raises "bits 63" (Invalid_argument "Space.create: bits outside [1, 62]")
    (fun () -> ignore (Space.create ~bits:63));
  check Alcotest.int "size 2^16" 65536 (Space.size sp);
  check Alcotest.int "default bits" 52 (Space.bits Space.default)

let test_space_contains () =
  check Alcotest.bool "0 in" true (Space.contains sp 0);
  check Alcotest.bool "max in" true (Space.contains sp 65535);
  check Alcotest.bool "size out" false (Space.contains sp 65536);
  check Alcotest.bool "negative out" false (Space.contains sp (-1))

let test_space_quota () =
  check (Alcotest.float 1e-12) "half" 0.5 (Space.quota sp 32768);
  check (Alcotest.float 1e-12) "all" 1. (Space.quota sp 65536)

(* --- Span --- *)

let test_span_root () =
  check Alcotest.int "root level" 0 (Span.level Span.root);
  check Alcotest.int "root start" 0 (Span.start sp Span.root);
  check Alcotest.int "root size" 65536 (Span.size sp Span.root);
  check (Alcotest.float 0.) "root quota" 1. (Span.quota sp Span.root)

let test_span_validation () =
  Alcotest.check_raises "negative level" (Invalid_argument "Span.make: level outside [0, Bh]")
    (fun () -> ignore (Span.make sp ~level:(-1) ~index:0));
  Alcotest.check_raises "level > bits" (Invalid_argument "Span.make: level outside [0, Bh]")
    (fun () -> ignore (Span.make sp ~level:17 ~index:0));
  Alcotest.check_raises "index too big"
    (Invalid_argument "Span.make: index outside [0, 2^level)") (fun () ->
      ignore (Span.make sp ~level:2 ~index:4))

let test_span_split () =
  let s = Span.make sp ~level:3 ~index:5 in
  let a, b = Span.split sp s in
  check Alcotest.int "left level" 4 (Span.level a);
  check Alcotest.int "left index" 10 (Span.index a);
  check Alcotest.int "right index" 11 (Span.index b);
  check Alcotest.int "left start = parent start" (Span.start sp s) (Span.start sp a);
  check Alcotest.int "halves abut" (Span.stop sp a) (Span.start sp b);
  check Alcotest.int "right stop = parent stop" (Span.stop sp s) (Span.stop sp b);
  check Alcotest.int "half size" (Span.size sp s / 2) (Span.size sp a);
  let deepest = Span.make sp ~level:16 ~index:0 in
  Alcotest.check_raises "split at max level"
    (Invalid_argument "Span.split: already at maximum level") (fun () ->
      ignore (Span.split sp deepest))

let test_span_parent_sibling () =
  let s = Span.make sp ~level:3 ~index:5 in
  let a, b = Span.split sp s in
  check (Alcotest.option span_testable) "parent of left" (Some s) (Span.parent a);
  check (Alcotest.option span_testable) "parent of right" (Some s) (Span.parent b);
  check (Alcotest.option span_testable) "sibling of left" (Some b) (Span.sibling a);
  check (Alcotest.option span_testable) "sibling of right" (Some a) (Span.sibling b);
  check (Alcotest.option span_testable) "root parent" None (Span.parent Span.root);
  check (Alcotest.option span_testable) "root sibling" None (Span.sibling Span.root)

let test_span_contains () =
  let s = Span.make sp ~level:4 ~index:3 in
  let st = Span.start sp s in
  check Alcotest.bool "start" true (Span.contains sp s st);
  check Alcotest.bool "last" true (Span.contains sp s (Span.stop sp s - 1));
  check Alcotest.bool "before" false (Span.contains sp s (st - 1));
  check Alcotest.bool "after" false (Span.contains sp s (Span.stop sp s))

let test_span_overlap () =
  let parent = Span.make sp ~level:2 ~index:1 in
  let child = Span.make sp ~level:4 ~index:5 in
  (* child [20480,24576) inside parent [16384,32768) *)
  check Alcotest.bool "ancestor overlaps" true (Span.overlap parent child);
  check Alcotest.bool "symmetric" true (Span.overlap child parent);
  let other = Span.make sp ~level:2 ~index:2 in
  check Alcotest.bool "disjoint" false (Span.overlap parent other);
  check Alcotest.bool "self" true (Span.overlap parent parent)

let test_span_compare () =
  let a = Span.make sp ~level:2 ~index:0 in
  let b = Span.make sp ~level:2 ~index:1 in
  let a_child = Span.make sp ~level:3 ~index:0 in
  check Alcotest.bool "by start" true (Span.compare a b < 0);
  check Alcotest.bool "same start, coarser first" true (Span.compare a a_child < 0);
  check Alcotest.int "equal" 0 (Span.compare a a)

let prop_of_point_inverse =
  QCheck.Test.make ~name:"of_point finds the covering span" ~count:500
    QCheck.(pair (int_bound 65535) (int_bound 16))
    (fun (p, level) ->
      let s = Span.of_point sp ~level p in
      Span.contains sp s p && Span.level s = level)

let prop_split_partitions =
  QCheck.Test.make ~name:"split partitions the parent" ~count:500
    QCheck.(pair (int_bound 65535) (int_bound 15))
    (fun (p, level) ->
      let s = Span.of_point sp ~level p in
      let a, b = Span.split sp s in
      (* Every point of the parent is in exactly one half. *)
      let q = Span.start sp s + (Span.size sp s / 2) in
      Span.contains sp a (Span.start sp s)
      && (not (Span.contains sp a q))
      && Span.contains sp b q
      && Span.size sp a + Span.size sp b = Span.size sp s)

(* --- Coverage --- *)

let level_tiling level =
  List.init (1 lsl level) (fun i -> Span.make sp ~level ~index:i)

let test_coverage_ok () =
  (match Coverage.check sp (level_tiling 4) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Coverage.pp_error e);
  check (Alcotest.float 1e-12) "quota 1" 1. (Coverage.total_quota sp (level_tiling 3))

let test_coverage_mixed_levels () =
  (* Root split into [0, 1/2) at level 1 and two level-2 quarters. *)
  let spans =
    [
      Span.make sp ~level:1 ~index:0;
      Span.make sp ~level:2 ~index:2;
      Span.make sp ~level:2 ~index:3;
    ]
  in
  match Coverage.check sp spans with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mixed tiling rejected: %a" Coverage.pp_error e

let test_coverage_gap () =
  let spans = [ Span.make sp ~level:1 ~index:0 ] in
  match Coverage.check sp spans with
  | Error (Coverage.Gap _) -> ()
  | Ok () -> Alcotest.fail "gap not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Coverage.pp_error e

let test_coverage_overlap () =
  let spans =
    [ Span.make sp ~level:1 ~index:0; Span.make sp ~level:2 ~index:1;
      Span.make sp ~level:1 ~index:1 ]
  in
  match Coverage.check sp spans with
  | Error (Coverage.Overlap _) -> ()
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Coverage.pp_error e

(* One physical span listed twice (a partition a donor kept after
   handing it on) is an overlap finding, not an exception. *)
let test_coverage_duplicate () =
  let half = Span.make sp ~level:1 ~index:0 in
  match Coverage.check sp [ half; half; Span.make sp ~level:1 ~index:1 ] with
  | Error (Coverage.Overlap { a; b }) ->
      Alcotest.(check bool) "both sides named" true (a == half && b == half)
  | Ok () -> Alcotest.fail "duplicate not detected"
  | Error e -> Alcotest.failf "wrong error: %a" Coverage.pp_error e

let test_coverage_empty () =
  match Coverage.check sp [] with
  | Error Coverage.Empty -> ()
  | _ -> Alcotest.fail "empty not detected"

(* --- Point_map --- *)

let test_point_map_basics () =
  let m = Point_map.create sp in
  check Alcotest.int "empty" 0 (Point_map.cardinal m);
  let a = Span.make sp ~level:1 ~index:0 in
  let b = Span.make sp ~level:1 ~index:1 in
  Point_map.add m a "left";
  Point_map.add m b "right";
  check Alcotest.int "two spans" 2 (Point_map.cardinal m);
  let s, v = Point_map.find_point m 0 in
  check span_testable "span of 0" a s;
  check Alcotest.string "owner of 0" "left" v;
  let _, v = Point_map.find_point m 65535 in
  check Alcotest.string "owner of last" "right" v;
  let _, v = Point_map.find_point m 32768 in
  check Alcotest.string "boundary" "right" v;
  let _, v = Point_map.find_point m 32767 in
  check Alcotest.string "boundary - 1" "left" v

let test_point_map_overlap_rejected () =
  let m = Point_map.create sp in
  Point_map.add m (Span.make sp ~level:1 ~index:0) 1;
  Alcotest.check_raises "same span" (Invalid_argument "Point_map.add: overlapping span")
    (fun () -> Point_map.add m (Span.make sp ~level:1 ~index:0) 2);
  Alcotest.check_raises "child span" (Invalid_argument "Point_map.add: overlapping span")
    (fun () -> Point_map.add m (Span.make sp ~level:2 ~index:1) 2);
  Alcotest.check_raises "parent span" (Invalid_argument "Point_map.add: overlapping span")
    (fun () -> Point_map.add m Span.root 2)

let test_point_map_remove () =
  let m = Point_map.create sp in
  let a = Span.make sp ~level:1 ~index:0 in
  Point_map.add m a 1;
  Alcotest.check_raises "remove wrong level" Not_found (fun () ->
      Point_map.remove m (Span.make sp ~level:2 ~index:0));
  Point_map.remove m a;
  check Alcotest.int "removed" 0 (Point_map.cardinal m);
  Alcotest.check_raises "find in empty" Not_found (fun () ->
      ignore (Point_map.find_point m 0))

let test_point_map_split_replace () =
  let m = Point_map.create sp in
  Point_map.add m Span.root "owner";
  Point_map.split m Span.root;
  check Alcotest.int "two halves" 2 (Point_map.cardinal m);
  let s, v = Point_map.find_point m 40000 in
  check Alcotest.string "owner preserved" "owner" v;
  check Alcotest.int "level 1" 1 (Span.level s);
  Point_map.replace_owner m s "new";
  let _, v = Point_map.find_point m 40000 in
  check Alcotest.string "owner replaced" "new" v;
  let _, v = Point_map.find_point m 0 in
  check Alcotest.string "other half untouched" "owner" v

let test_point_map_iter_order () =
  let m = Point_map.create sp in
  List.iter
    (fun i -> Point_map.add m (Span.make sp ~level:2 ~index:i) i)
    [ 2; 0; 3; 1 ];
  let order = ref [] in
  Point_map.iter m (fun _ v -> order := v :: !order);
  check Alcotest.(list int) "ascending start" [ 0; 1; 2; 3 ] (List.rev !order);
  check Alcotest.int "spans list" 4 (List.length (Point_map.spans m))

let test_point_map_overlapping () =
  let m = Point_map.create sp in
  (* Tiling: [0,1/2) at level 1, quarters [1/2,3/4) and [3/4,1). *)
  Point_map.add m (Span.make sp ~level:1 ~index:0) "half";
  Point_map.add m (Span.make sp ~level:2 ~index:2) "q3";
  Point_map.add m (Span.make sp ~level:2 ~index:3) "q4";
  (* A level-2 span inside the coarse half overlaps only it. *)
  let hits = Point_map.overlapping m (Span.make sp ~level:2 ~index:1) in
  check Alcotest.(list string) "inside coarse entry" [ "half" ]
    (List.map snd hits);
  (* The right half overlaps both quarters. *)
  let hits = Point_map.overlapping m (Span.make sp ~level:1 ~index:1) in
  check Alcotest.(list string) "both quarters" [ "q3"; "q4" ]
    (List.map snd hits);
  (* The root overlaps everything, in start order. *)
  let hits = Point_map.overlapping m Span.root in
  check Alcotest.(list string) "everything" [ "half"; "q3"; "q4" ]
    (List.map snd hits)

let prop_random_tiling_lookup =
  (* Build a random dyadic tiling by repeatedly splitting a random span,
     then check that lookups agree with Span.contains and that the tiling
     is a valid coverage. *)
  QCheck.Test.make ~name:"random dyadic tiling routes every point" ~count:60
    QCheck.small_int
    (fun seed ->
      let rng = Rng.of_int seed in
      let m = Point_map.create sp in
      Point_map.add m Span.root 0;
      let splits = 1 + Rng.int rng 40 in
      for i = 1 to splits do
        let p = Rng.int rng (Space.size sp) in
        let s, _ = Point_map.find_point m p in
        if Span.level s < 10 then begin
          Point_map.split m s;
          let s', _ = Point_map.find_point m p in
          ignore s';
          Point_map.replace_owner m s' i
        end
      done;
      (match Coverage.check sp (Point_map.spans m) with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "coverage: %a" Coverage.pp_error e);
      List.for_all
        (fun _ ->
          let p = Rng.int rng (Space.size sp) in
          let s, _ = Point_map.find_point m p in
          Span.contains sp s p)
        (List.init 50 Fun.id))

let test_point_map_learn () =
  let m = Point_map.create sp in
  Point_map.add m Span.root "old";
  (* Learning a quarter inside the root entry decomposes the remainder
     along the dyadic path: sibling half and sibling quarter keep "old". *)
  Point_map.learn m (Span.make sp ~level:2 ~index:1) "new";
  check Alcotest.int "three fragments" 3 (Point_map.cardinal m);
  check Alcotest.string "learned span routes" "new"
    (snd (Point_map.find_point m (Space.size sp / 4)));
  check Alcotest.string "left quarter keeps old owner" "old"
    (snd (Point_map.find_point m 0));
  check Alcotest.string "right half keeps old owner" "old"
    (snd (Point_map.find_point m (Space.size sp / 2)));
  (match Coverage.check sp (Point_map.spans m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "hole after learn: %a" Coverage.pp_error e);
  (* Learning a coarser span evicts everything under it wholesale. *)
  Point_map.learn m (Span.make sp ~level:1 ~index:0) "coarse";
  check Alcotest.int "finer entries evicted" 2 (Point_map.cardinal m);
  check Alcotest.string "coarse owner routes" "coarse"
    (snd (Point_map.find_point m 0))

let prop_learn_matches_evict_reinsert =
  (* [learn] must be observationally equal to the reference implementation:
     evict every overlapping entry, re-add the dyadic remainder of coarser
     ones under their old value, insert the new span. *)
  QCheck.Test.make ~name:"learn = evict + dyadic re-insert" ~count:100
    QCheck.small_int
    (fun seed ->
      let rng = Rng.of_int seed in
      let reference m span value =
        let old = Point_map.overlapping m span in
        List.iter
          (fun (s, prev) ->
            Point_map.remove m s;
            if Span.level s < Span.level span then begin
              let rec keep_rest s =
                if not (Span.equal s span) then begin
                  let a, b = Span.split sp s in
                  if Span.overlap a span then begin
                    Point_map.add m b prev;
                    keep_rest a
                  end
                  else begin
                    Point_map.add m a prev;
                    keep_rest b
                  end
                end
              in
              keep_rest s
            end)
          old;
        Point_map.add m span value
      in
      let a = Point_map.create sp and b = Point_map.create sp in
      Point_map.add a Span.root (-1);
      Point_map.add b Span.root (-1);
      for i = 0 to 30 do
        let level = 1 + Rng.int rng 6 in
        let index = Rng.int rng (1 lsl level) in
        let span = Span.make sp ~level ~index in
        Point_map.learn a span i;
        reference b span i
      done;
      let dump m =
        List.map
          (fun (s, v) -> (Span.level s, Span.index s, v))
          (Point_map.to_list m)
      in
      if dump a <> dump b then QCheck.Test.fail_reportf "tries diverged";
      Point_map.cardinal a = Point_map.cardinal b)

let suite =
  [
    Alcotest.test_case "space validation" `Quick test_space_validation;
    Alcotest.test_case "space contains" `Quick test_space_contains;
    Alcotest.test_case "space quota" `Quick test_space_quota;
    Alcotest.test_case "span root" `Quick test_span_root;
    Alcotest.test_case "span validation" `Quick test_span_validation;
    Alcotest.test_case "span split" `Quick test_span_split;
    Alcotest.test_case "span parent/sibling" `Quick test_span_parent_sibling;
    Alcotest.test_case "span contains" `Quick test_span_contains;
    Alcotest.test_case "span overlap" `Quick test_span_overlap;
    Alcotest.test_case "span compare" `Quick test_span_compare;
    QCheck_alcotest.to_alcotest prop_of_point_inverse;
    QCheck_alcotest.to_alcotest prop_split_partitions;
    Alcotest.test_case "coverage ok" `Quick test_coverage_ok;
    Alcotest.test_case "coverage mixed levels" `Quick test_coverage_mixed_levels;
    Alcotest.test_case "coverage gap" `Quick test_coverage_gap;
    Alcotest.test_case "coverage overlap" `Quick test_coverage_overlap;
    Alcotest.test_case "coverage duplicate span" `Quick test_coverage_duplicate;
    Alcotest.test_case "coverage empty" `Quick test_coverage_empty;
    Alcotest.test_case "point map basics" `Quick test_point_map_basics;
    Alcotest.test_case "point map rejects overlap" `Quick
      test_point_map_overlap_rejected;
    Alcotest.test_case "point map remove" `Quick test_point_map_remove;
    Alcotest.test_case "point map split/replace" `Quick
      test_point_map_split_replace;
    Alcotest.test_case "point map iteration order" `Quick
      test_point_map_iter_order;
    Alcotest.test_case "point map overlapping" `Quick test_point_map_overlapping;
    QCheck_alcotest.to_alcotest prop_random_tiling_lookup;
    Alcotest.test_case "point map learn" `Quick test_point_map_learn;
    QCheck_alcotest.to_alcotest prop_learn_matches_evict_reinsert;
  ]
