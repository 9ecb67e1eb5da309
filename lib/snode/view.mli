(** The cluster's logical state as pure, canonically-ordered data, and the
    one invariant battery over it.

    Two runs that agree on {!equal} views hold the same partitions, group
    structure, LPDR copies, routing caches, replica maps and key/value
    contents — version stamps and the clock are excluded, so logically
    identical states compare equal even when virtual timings differ (e.g.
    under transmission batching). {!Runtime.view} builds one;
    {!Runtime.audit} runs {!check} on one.

    Findings are ["INV: detail"] messages. Invariant names follow the
    paper: G1 (partitions tile [R_h] exactly), G2–G5 (the per-group
    predicates of {!Dht_core.Audit}: power-of-two total, one split level,
    [Pmin <= Pv <= 2·Pmin], power-of-two population implies equal counts),
    L1 (groups partition the vnode set), L2 ([Vmin <= Vg <= Vmax], the
    sole group exempt from the floor); plus [count] and [group] (a member's
    registered count and group field match what it holds), [LPDR] (live
    copies of a group agree), [quota] (ΣQv = 1), [cache] (routing-cache
    coverage and cap), [rmap] (replica-map coverage), [host] (a vnode
    lives on the snode its id names) and [data] (keys live at their
    owner). *)

open Dht_core

type lpdr_copy = {
  group : Group_id.t;
  level : int;
  epoch : int;
  counts : (Vnode_id.t * int) list;  (** sorted by vnode id *)
}

type vnode_view = {
  vid : Vnode_id.t;
  group : Group_id.t;
  spans : Dht_hashspace.Span.t list;  (** sorted *)
  data : (string * string) list;  (** sorted [(key, value)] *)
}

type snode_view = {
  sid : int;
  up : bool;
  vnodes : vnode_view list;  (** sorted by vnode id *)
  lpdrs : lpdr_copy list;  (** sorted by group id *)
  cache : (Dht_hashspace.Span.t * Vnode_id.t) list;
  rmap : (Dht_hashspace.Span.t * int list) list;
  replicas : (string * string) list;  (** sorted [(key, value)] *)
  hints : int;
}

type t = { at : float; snodes : snode_view list }

val equal : t -> t -> bool
(** Structural equality of the logical state; [at] is ignored. *)

val pp : Format.formatter -> t -> unit
(** One summary line per snode. *)

val placement :
  space:Dht_hashspace.Space.t ->
  sid:int ->
  vid:Vnode_id.t ->
  Dht_hashspace.Span.t list ->
  key:string ->
  int ->
  string option
(** [placement ~space ~sid ~vid spans ~key point] is the [data] finding for
    a key hashing to [point], stored at vnode [vid] on snode [sid], when no
    span of [spans] contains the point. {!check_snode} derives the point
    from the key; {!Runtime.store_audit} passes the point its store table
    cached. *)

val check_snode :
  space:Dht_hashspace.Space.t -> route_cap:int -> snode_view -> string list
(** The per-snode checks, which hold at {e every} instant, including while
    a balancing commit is fanning out: routing-cache coverage and, when
    [route_cap > 0], its cap; replica-map coverage; [host]; and data
    placement of the keys the view carries. Safe from a
    {!Runtime.set_on_commit} hook. *)

val check_groups :
  space:Dht_hashspace.Space.t -> pmin:int -> vmax:int -> t -> string list
(** The cluster-wide checks, which read only each snode's vnodes and LPDR
    copies: G1', quota conservation, agreement of the live snodes' LPDR
    copies, then per group L2, G2'–G5', [count], [group] and L1 in both
    directions. [vmax] is the group capacity [2·Vmin] ([max_int] under
    the global approach). Meaningful at quiescence: LPDR copies
    legitimately diverge while a commit is in flight. *)

val check :
  space:Dht_hashspace.Space.t ->
  pmin:int ->
  vmax:int ->
  route_cap:int ->
  t ->
  string list
(** The whole battery over one cluster snapshot: {!check_groups}, then
    {!check_snode} on every snode, up or down. *)
