(** The paper's invariants as pure predicates.

    Every check returns a list of structured findings — empty means the
    invariant battery holds. Model-level checks (over {!Dht_core.Local_dht}
    and {!Dht_core.Global_dht}) lift the messages of {!Dht_core.Audit};
    runtime-level checks lift those of the one runtime battery,
    {!Dht_snode.View.check}, whose per-group predicates are
    {!Dht_core.Audit}'s own. {!Dht_snode.View} lists the invariant names:
    G1–G5/G1'–G5', L1, L2, and the runtime's [count], [group], [LPDR],
    [quota], [cache], [rmap], [host], [data] and [STORE]. *)

open Dht_core
module Runtime := Dht_snode.Runtime

type finding = { inv : string;  (** invariant name, e.g. ["G4"] *) detail : string }

val pp_finding : Format.formatter -> finding -> unit

val to_strings : finding list -> string list

val of_messages : string list -> finding list
(** Lift ["G4: ..."]-style audit messages into structured findings. *)

val check_local : Local_dht.t -> finding list
(** G1'-G5', L1, L2 and quota conservation over the local-model oracle
    ({!Dht_core.Audit.check_local}). *)

val check_global : Global_dht.t -> finding list
(** G1-G5 over the global-model oracle ({!Dht_core.Audit.check_global}). *)

val check_snode :
  space:Dht_hashspace.Space.t -> Runtime.View.snode_view -> finding list
(** {!Dht_snode.View.check_snode} without the cache cap: the per-snode
    subset that holds at {e every} instant, including while a balancing
    commit is fanning out. Safe from a
    {!Dht_snode.Runtime.set_on_commit} hook. *)

val check_view :
  space:Dht_hashspace.Space.t ->
  pmin:int ->
  vmax:int ->
  route_cap:int ->
  Runtime.View.t ->
  finding list
(** {!Dht_snode.View.check}: the full battery over one cluster snapshot.
    Meaningful at quiescence — LPDR copies legitimately diverge while a
    commit is in flight. *)

val check_runtime : Runtime.t -> finding list
(** {!Dht_snode.Runtime.audit}, lifted: {!check_view} with the runtime's
    own parameters plus {!Dht_snode.Runtime.store_audit}. *)

val check_overload : Runtime.t -> finding list
(** Queue-discipline audit of the graceful-degradation layer
    ({!Dht_snode.Runtime.queue_audit}): every bounded per-peer window
    holds at most [max_inflight] live entries and the window counters
    match the outbox contents exactly. Findings carry the ["overload"]
    invariant name. Valid at any instant. *)

val check_merkle : Runtime.t -> finding list
(** Hash-tree consistency audit ({!Dht_snode.Runtime.merkle_audit}):
    every live snode's freshly built snapshot tree must pass the
    structural check — interior hashes recomputable as the XOR of their
    children, counts additive, canonical shape — and its frame for every
    replicated partition span must equal the flat scan digest of that
    span. Findings carry the ["MERKLE"] invariant name. Valid at any
    instant (the audit builds its own snapshot). *)

val check_balance : ?acked:string list -> Runtime.t -> finding list
(** Active-balancing audit: the full {!check_runtime} battery — a
    hot-partition swap moves only placement, so G1–G5/L1–L2, LPDR
    agreement, quota conservation, coverage and data placement must all
    still hold after any number of swaps — plus a durability oracle over
    [acked]: every key whose write was acknowledged must still resolve at
    its owner's authoritative copy ({!Dht_snode.Runtime.peek}); a key
    that does not is a ["balance"] finding (the transfer lost data
    mid-flight). Meaningful at quiescence. *)
