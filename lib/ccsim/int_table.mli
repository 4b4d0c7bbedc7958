(** Open-addressed map over nonnegative int keys.

    A leaner replacement for [(int, 'a) Hashtbl.t] on simulator hot paths:
    no hashing call, no bucket allocation, no option boxing on lookup.
    Keys must be nonnegative (negative keys are rejected by [set] and
    treated as absent elsewhere). *)

type 'a t

val create : ?size_hint:int -> 'a -> 'a t
(** [create dummy] is an empty table. [dummy] seeds the value array and is
    never returned by lookups. [size_hint] is the expected entry count. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or replace. *)

val find_default : 'a t -> int -> 'a -> 'a
(** [find_default t k d] is the binding of [k], or [d] when absent.
    Allocation-free. *)

val mem : 'a t -> int -> bool

val remove : 'a t -> int -> unit
(** No-op when absent. *)

val remove_range : 'a t -> lo:int -> hi:int -> unit
(** Remove every key in [\[lo, hi)] in one pass over the slots, leaving
    the table exactly as {!remove} on each of those keys would.
    Allocation-free; costs the table's size, not the range's width. *)

val length : 'a t -> int

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending slot order — arbitrary but deterministic for a given
    insertion history. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
