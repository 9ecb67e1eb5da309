(** Run-time verification of the model's invariants.

    These checks re-derive every invariant of §2.2 and §3.3 from the live
    state (never from cached counters) and report all violations found. They
    are meant for tests and debugging; they are O(total partitions). *)

(** {2 Per-group predicates}

    Each invariant is written once here and applied both to the models
    below and to the snode runtime's LPDR copies ({!Dht_snode.View.check}).
    They return ["INV: detail"] messages; empty means the invariant holds. *)

val group_counts :
  pmin:int -> group:Group_id.t -> (Vnode_id.t * int) list -> string list
(** Over a group's registered [(vnode, partition count)] list: G2'/G2 (the
    total is a power of two), G4'/G4 (each count within
    [\[Pmin, 2·Pmin\]]) and G5'/G5 in the removal-tolerant form (a
    power-of-two population has equal counts). *)

val member :
  group:Group_id.t ->
  level:int ->
  id:Vnode_id.t ->
  count:int ->
  member_of:Group_id.t ->
  Dht_hashspace.Span.t list ->
  string list
(** One member [id] of [group], registered with [count] partitions, whose
    own group field is [member_of] and who holds the given spans: [count]
    equals the number of spans ([count]), [member_of = group] ([group]),
    and G3'/G3 (every span at the group's split [level]). *)

val group_size :
  vmin:int -> vmax:int -> sole:bool -> group:Group_id.t -> int -> string list
(** L2 for a group of [Vg] members: [Vmin <= Vg <= Vmax], or
    [1 <= Vg <= Vmax] while the group is the [sole] one. *)

(** {2 Model checks} *)

val check_balancer : Balancer.t -> string list
(** Violations of the per-group invariants: G2'/G2 (group partition total a
    power of two), G3'/G3 (all partitions at the group's split level, hence
    equal-sized), G4'/G4 (counts within [\[Pmin, Pmax\]]), G5'/G5 (vnode
    count a power of two ⇒ all counts equal, i.e. perfect quota balance —
    the removal-tolerant form, see {!Balancer.remove_vnode}), plus internal
    consistency ([count] = number of spans, vnode [group] field matches). *)

val check_global : Global_dht.t -> (unit, string list) result
(** All balancer checks plus G1 (the routing map tiles [R_h] exactly) and
    map/ownership consistency. *)

val check_local : Local_dht.t -> (unit, string list) result
(** All balancer checks per group plus G1', L1 (groups partition the vnode
    set — every routed vnode belongs to exactly one live group), L2 (group
    sizes within [\[Vmin, Vmax\]], with the paper's group-0 exception while
    it is the only group), unique group ids, and quota conservation
    (ΣQv = ΣQg = 1). *)
