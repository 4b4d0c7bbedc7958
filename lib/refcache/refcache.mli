(** Refcache: space-efficient, lazy, scalable reference counting
    (section 3.1 and Figure 2 of the paper).

    Each object has a global reference count; each core has a fixed-size
    cache of per-object count deltas. [inc]/[dec] touch only the local
    cache. Every epoch (driven by the machine's maintenance hooks) each
    core flushes its deltas into the global counts; the last core to flush
    ends the epoch. When a flush drops an object's global count to zero,
    the flushing core queues the object for review two epochs later — by
    which time every core has flushed at least once — and frees it only if
    the count is still zero and was never disturbed in between (no "dirty
    zero").

    Weak references support the radix tree's revival of empty nodes: a weak
    reference carries a dying bit; [tryget] either revives the object
    (clearing the bit and incrementing its count) or reports that it has
    been freed. A race between [tryget] and deletion is settled by which
    side clears the dying bit first.

    Space is O(objects + cores): the per-core cache size is fixed and
    collisions simply evict the previous delta early. *)

type t
type obj
type weakref

val create : ?cache_slots:int -> Ccsim.Machine.t -> t
(** [create machine] registers a flush+review maintenance hook on every
    core with period [machine.params.epoch_cycles]. [cache_slots] is the
    per-core delta-cache size (default 4096; must be a power of two). *)

val make_obj :
  ?label:string ->
  t -> Ccsim.Core.t -> init:int -> free:(Ccsim.Core.t -> unit) -> obj
(** A counted object with initial count [init] (>= 0; an object created at
    0 is immediately eligible for review) whose [free] runs when Refcache
    decides the true count is zero. [label] (default ["refcache:obj"])
    names the object's lines and count events in checker reports. *)

val make_weak_obj :
  ?label:string ->
  t -> Ccsim.Core.t -> init:int -> free:(Ccsim.Core.t -> unit) ->
  obj * weakref
(** As {!make_obj}, with an attached weak reference. *)

val inc : t -> Ccsim.Core.t -> obj -> unit
val dec : t -> Ccsim.Core.t -> obj -> unit

val tryget : t -> Ccsim.Core.t -> weakref -> bool
(** Revive through a weak reference: increments the object's count and
    returns [true], or returns [false] if it has been freed (or is being
    freed). *)

val is_freed : obj -> bool

val oid : obj -> int
(** The object id carried by this object's [Rc_*] instrumentation events. *)

val true_count : t -> obj -> int
(** Global count plus all cached deltas — the count's true value. O(cores):
    it reads the object's two-way set in each core's cache. For tests and
    assertions only (charges nothing). *)

val epoch : t -> int
(** Current global epoch. *)

val flush : t -> Ccsim.Core.t -> unit
(** Flush one core's delta cache and run its review queue. Normally driven
    by machine maintenance; exposed for tests. *)

val pending_review : t -> int
(** Objects sitting on review queues (for tests). *)

val approx_bytes : t -> live_objects:int -> int
(** Modeled memory footprint: per-core caches plus per-object headers —
    O(objects + cores), the space claim of section 3.1. *)
