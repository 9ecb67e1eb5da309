(** Point-ordered cell tables: one snode's store for a partition owner
    ([vnode] data) or for its replica copies.

    Partitions are contiguous dyadic intervals of the hash range, so the
    store is ordered by hash point rather than hashed by key. Every slot
    caches its key's point. A bucket covers an aligned dyadic interval of
    points and chains its slots in [(point, key)] order. A bucket whose
    chain passes a fixed length splits into 16 equal sub-buckets on the
    next 4 bits of the point, in order, and a split bucket whose slots
    fall back to that length collapses into one chain again. Bucket
    order is therefore hash order: a range read, span digest or partition
    transfer visits only the buckets overlapping its interval instead of
    rehashing every key the snode holds. Iteration order is canonical —
    it depends on the held cells only, never on insertion history.

    A lookup follows the point's bits down to its chain and compares the
    int point before the key string: no hashing of the key. Buckets split
    where the cells are, so a table whose cells cover a few scattered
    partitions (one vnode's data) stays as shallow as one spread over
    the whole space; a flat array indexed by the point's top bits would
    pile such a table into a few long chains. There is no tuning
    parameter.

    The caller supplies each key's point and must supply the same one on
    every call for that key (the runtime passes [Hash.string space key]);
    {!check} audits the structure against the points it was given, and
    the runtime's placement audit checks the points against the hash. *)

type 'a slot
(** One stored key with its cached point and its cell. The cell may be
    overwritten in place; key and point never change. Chains link slots
    directly, so a stored key costs one five-word block. *)

val key : 'a slot -> string
val point : 'a slot -> int
val cell : 'a slot -> 'a

val set_cell : 'a slot -> 'a -> unit
(** Overwrite the slot's cell in place (an LWW update's single probe). *)

type 'a t

val create : Dht_hashspace.Space.t -> 'a t
(** An empty table over the points of the space. *)

val length : 'a t -> int
(** Number of stored keys. *)

val find : 'a t -> point:int -> key:string -> 'a slot option
(** The slot of [key], whose point is [point]. Compares the int point
    before the key string; no hashing. *)

val add : 'a t -> point:int -> key:string -> 'a -> unit
(** [add t ~point ~key cell] binds [key] to [cell], overwriting the cell
    in place if [key] is already stored.
    @raise Invalid_argument if [point] lies outside the space. *)

val remove : 'a t -> point:int -> key:string -> unit
(** Drops [key]; no-op when absent. *)

val iter : ('a slot -> unit) -> 'a t -> unit
(** Every slot, in [(point, key)] order. The callback must not modify the
    table. *)

val fold : ('a slot -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold in [(point, key)] order. *)

type scan = { mutable examined : int; mutable visited : int }
(** Cost accumulator for {!iter_range}: slots compared against the bounds
    and buckets visited. *)

val scan : unit -> scan
(** A zeroed accumulator. *)

val iter_range :
  ?scan:scan -> 'a t -> lo:int -> hi:int -> ('a slot -> unit) -> unit
(** [iter_range t ~lo ~hi f] calls [f] on every slot whose point lies in
    [\[lo, hi)], in [(point, key)] order, visiting only the buckets that
    overlap the interval (and stopping inside the last one at the first
    point past [hi]). Bounds outside the space are clipped. When [scan]
    is given, the slots examined and buckets visited are added to it. The
    callback must not modify the table. *)

val check : 'a t -> string list
(** Structural audit, one finding per line: a slot filed in a bucket
    whose interval does not contain its point, a chain out of
    [(point, key)] order or holding a key twice, a chain past the split
    length that was not split, a split bucket that should have collapsed
    or whose slot count is wrong, and a stored count that differs from
    the slots present. Empty means consistent. *)
