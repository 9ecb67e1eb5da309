module Space = Dht_hashspace.Space

(* A bucket covers an aligned dyadic interval of points. It is a chain of
   mutable slots in (point, key) order, or — once it has outgrown
   [max_chain] — a node fanning its interval out to 16 sub-buckets of
   equal width, in order. Chains link through the slots themselves, so
   insertion and removal relink in place. [next] is never a [Node]. *)
type 'a entry =
  | Nil
  | Slot of {
      key : string;
      point : int;
      mutable cell : 'a;
      mutable next : 'a entry;
    }
  | Node of {
      shift : int;
      mask : int;  (* sub-bucket [i] holds the points with [(p lsr shift) land mask = i] *)
      kids : 'a entry array;
      mutable size : int;  (* slots below this node *)
    }

type 'a slot = 'a entry

let key = function Slot s -> s.key | Nil | Node _ -> invalid_arg "Cells.key"
let point = function Slot s -> s.point | Nil | Node _ -> invalid_arg "Cells.point"
let cell = function Slot s -> s.cell | Nil | Node _ -> invalid_arg "Cells.cell"

let set_cell slot c =
  match slot with
  | Slot s -> s.cell <- c
  | Nil | Node _ -> invalid_arg "Cells.set_cell"

type 'a t = { space : Space.t; mutable root : 'a entry; mutable count : int }
type scan = { mutable examined : int; mutable visited : int }

let scan () = { examined = 0; visited = 0 }

(* Fixed shape constants, not knobs: a bucket splits into 16 in-order
   sub-buckets (the next 4 bits of the point) once its chain passes
   [max_chain] slots, and a node whose subtree falls to [max_chain] slots
   collapses back into one chain. *)
let bits_per_level = 4
let max_chain = 8

(* A node over a [2^width]-point interval indexes its sub-buckets by the
   interval's next [min 4 width] bits: returns [(shift, sub-buckets)]. *)
let geometry width =
  let b = min bits_per_level width in
  (width - b, 1 lsl b)

let create space = { space; root = Nil; count = 0 }
let length t = t.count

(* Chain order: by point, then by key for the (rare) colliding points. *)
let before ~point ~key p k = point < p || (point = p && String.compare key k < 0)

let rec find_in point key = function
  | Slot s as slot ->
      if s.point = point && String.equal s.key key then Some slot
      else if s.point > point then None
      else find_in point key s.next
  | Node n -> find_in point key (Array.unsafe_get n.kids ((point lsr n.shift) land n.mask))
  | Nil -> None

let find t ~point ~key =
  if Space.contains t.space point then find_in point key t.root else None

let rec chain_length n = function
  | Slot s -> chain_length (n + 1) s.next
  | Nil | Node _ -> n

(* Split a chain of [size] slots over a [2^width]-point interval into a
   node, keeping each sub-chain in order (slots arrive sorted, so
   appending at each sub-chain's tail is enough); a sub-chain still past
   [max_chain] splits in turn. *)
let rec node_of_chain width chain size =
  let shift, n = geometry width in
  let mask = n - 1 in
  let kids = Array.make n Nil and tails = Array.make n Nil and sizes = Array.make n 0 in
  let rec go = function
    | Slot s as slot ->
        let next = s.next in
        s.next <- Nil;
        let i = (s.point lsr shift) land mask in
        (match tails.(i) with
        | Slot t -> t.next <- slot
        | Nil | Node _ -> kids.(i) <- slot);
        tails.(i) <- slot;
        sizes.(i) <- sizes.(i) + 1;
        go next
    | Nil | Node _ -> ()
  in
  go chain;
  Array.iteri
    (fun i k -> if k > max_chain && shift > 0 then kids.(i) <- node_of_chain shift kids.(i) k)
    sizes;
  Node { shift; mask; kids; size }

(* Concatenate a subtree's chains back into one, in order. *)
let chain_of_node entry =
  let head = ref Nil and tail = ref Nil in
  let rec go = function
    | Slot s as slot ->
        let next = s.next in
        s.next <- Nil;
        (match !tail with Slot t -> t.next <- slot | Nil | Node _ -> head := slot);
        tail := slot;
        go next
    | Node n -> Array.iter go n.kids
    | Nil -> ()
  in
  go entry;
  !head

(* Link [slot] into [chain] before the first greater slot, [prev] being
   the last smaller one seen; returns the chain's new head. *)
let rec link slot point key chain prev = function
  | Slot s as cur when not (before ~point ~key s.point s.key) ->
      link slot point key chain cur s.next
  | rest -> (
      (match slot with Slot n -> n.next <- rest | Nil | Node _ -> ());
      match prev with
      | Slot p ->
          p.next <- slot;
          chain
      | Nil | Node _ -> slot)

(* Link a new slot into the bucket below [entry] whose interval is
   [2^width] points wide; returns the entry to store in its place (a
   chain past [max_chain] comes back as a node). *)
let rec insert slot point key width entry =
  match entry with
  | Node n ->
      let i = (point lsr n.shift) land n.mask in
      let kid = n.kids.(i) in
      let kid' = insert slot point key n.shift kid in
      if kid' != kid then n.kids.(i) <- kid';
      n.size <- n.size + 1;
      entry
  | Nil | Slot _ ->
      let entry = link slot point key entry Nil entry in
      let len = chain_length 0 entry in
      if len > max_chain && width > 0 then node_of_chain width entry len
      else entry

let add t ~point ~key cell =
  if not (Space.contains t.space point) then
    invalid_arg "Cells.add: point outside the space";
  match find_in point key t.root with
  | Some slot -> set_cell slot cell
  | None ->
      let slot = Slot { key; point; cell; next = Nil } in
      t.root <- insert slot point key (Space.bits t.space) t.root;
      t.count <- t.count + 1

(* Unlink the (present) slot from below [entry]; returns the entry to
   store in its place (a node left with [max_chain] slots or fewer comes
   back as one chain). *)
let rec delete point key entry =
  match entry with
  | Node n ->
      let i = (point lsr n.shift) land n.mask in
      let kid = n.kids.(i) in
      let kid' = delete point key kid in
      if kid' != kid then n.kids.(i) <- kid';
      n.size <- n.size - 1;
      if n.size <= max_chain then chain_of_node entry else entry
  | Nil | Slot _ ->
      let rec unlink prev = function
        | Slot s as cur ->
            if s.point = point && String.equal s.key key then (
              match prev with
              | Slot p ->
                  p.next <- s.next;
                  entry
              | Nil | Node _ -> s.next)
            else unlink cur s.next
        | Nil | Node _ -> entry
      in
      unlink Nil entry

let remove t ~point ~key =
  if Space.contains t.space point then
    match find_in point key t.root with
    | None -> ()
    | Some _ ->
        t.root <- delete point key t.root;
        t.count <- t.count - 1

let iter f t =
  let rec go = function
    | Slot s as slot ->
        f slot;
        go s.next
    | Node n -> Array.iter go n.kids
    | Nil -> ()
  in
  go t.root

let fold f t init =
  let rec go acc = function
    | Slot s as slot -> go (f slot acc) s.next
    | Node n -> Array.fold_left go acc n.kids
    | Nil -> acc
  in
  go init t.root

let iter_range ?scan t ~lo ~hi f =
  let lo = max lo 0 and hi = min hi (Space.size t.space) in
  if lo < hi && t.count > 0 then begin
    let examined = ref 0 and visited = ref 0 in
    let rec walk = function
      | Slot s as slot ->
          incr examined;
          if s.point < hi then begin
            if s.point >= lo then f slot;
            walk s.next
          end
      | Nil | Node _ -> ()
    in
    (* [base] is the first point of the bucket [entry] covers. *)
    let rec go base = function
      | Node n ->
          let w = 1 lsl n.shift in
          let first = if lo > base then (lo - base) lsr n.shift else 0 in
          let last = min n.mask ((hi - 1 - base) lsr n.shift) in
          for i = first to last do
            go (base + (i * w)) n.kids.(i)
          done
      | chain ->
          incr visited;
          walk chain
    in
    go 0 t.root;
    match scan with
    | Some sc ->
        sc.examined <- sc.examined + !examined;
        sc.visited <- sc.visited + !visited
    | None -> ()
  end

let check t =
  let findings = ref [] in
  let bad fmt = Format.kasprintf (fun s -> findings := s :: !findings) fmt in
  (* Returns the slots below [entry], whose interval is [base, base + 2^width). *)
  let rec go base width entry =
    match entry with
    | Node n ->
        let shift, k = geometry width in
        if n.shift <> shift || n.mask <> k - 1 || Array.length n.kids <> k then
          bad "node at %d: shift %d, %d sub-buckets under a %d-bit interval" base
            n.shift (Array.length n.kids) width;
        let total = ref 0 in
        Array.iteri
          (fun i kid -> total := !total + go (base + (i lsl n.shift)) n.shift kid)
          n.kids;
        if !total <> n.size then
          bad "node at %d: size %d but %d slots below" base n.size !total;
        if !total <= max_chain then
          bad "node at %d: %d slots, not collapsed" base !total;
        !total
    | Nil | Slot _ ->
        let rec walk n prev = function
          | Slot s as slot ->
              if s.point < base || s.point - base >= 1 lsl width then
                bad "key %S: point %d filed in the bucket of [%d, %d)" s.key
                  s.point base (base + (1 lsl width));
              (match prev with
              | Slot p when not (before ~point:p.point ~key:p.key s.point s.key) ->
                  bad "key %S (point %d) chained after %S (point %d)" s.key
                    s.point p.key p.point
              | _ -> ());
              walk (n + 1) slot s.next
          | Node _ ->
              bad "node linked into the chain at %d" base;
              n
          | Nil -> n
        in
        let n = walk 0 Nil entry in
        if n > max_chain && width > 0 then
          bad "bucket at %d: %d slots, not split" base n;
        n
  in
  let seen = go 0 (Space.bits t.space) t.root in
  if seen <> t.count then bad "count %d but %d slots are stored" t.count seen;
  List.rev !findings
