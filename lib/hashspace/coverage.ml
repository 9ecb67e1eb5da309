type error =
  | Empty
  | Gap of { after : int; before : int }
  | Overlap of { a : Span.t; b : Span.t }
  | Out_of_space of Span.t

let pp_error ppf = function
  | Empty -> Format.fprintf ppf "no spans"
  | Gap { after; before } -> Format.fprintf ppf "gap in [%d, %d)" after before
  | Overlap { a; b } ->
      Format.fprintf ppf "overlap between %a and %a" Span.pp a Span.pp b
  | Out_of_space s -> Format.fprintf ppf "%a deeper than the space" Span.pp s

let check sp spans =
  match spans with
  | [] -> Error Empty
  | _ -> (
      match List.find_opt (fun s -> Span.level s > Space.max_level sp) spans with
      | Some s -> Error (Out_of_space s)
      | None ->
          let sorted = List.sort Span.compare spans in
          (* [prev] is the span that ended at [cursor]: sorted by start, a
             span starting before the cursor overlaps it (a duplicate too). *)
          let rec walk prev cursor = function
            | [] ->
                if cursor = Space.size sp then Ok ()
                else Error (Gap { after = cursor; before = Space.size sp })
            | s :: rest ->
                let st = Span.start sp s in
                if st < cursor then Error (Overlap { a = prev; b = s })
                else if st > cursor then Error (Gap { after = cursor; before = st })
                else walk s (Span.stop sp s) rest
          in
          walk (List.hd sorted) 0 sorted)

let total_quota sp spans =
  List.fold_left (fun acc s -> acc +. Span.quota sp s) 0. spans
