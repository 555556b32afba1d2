(** Access counters for one cache level.

    The paper reports miss rates for every level relative to the {e total}
    number of memory references issued by the program ("L2 misses are
    normalized to L1 misses"), not relative to the number of accesses that
    reached that level.  [miss_rate_vs ~total_refs] implements that
    convention; [local_miss_rate] is the conventional per-level rate.

    Write traffic is tracked on two distinct axes that earlier versions
    conflated: [writes] counts write {e accesses} that reached the level
    (hits and misses alike), while [writebacks] counts dirty-line
    {e evictions} — the write-back traffic the level sends toward the next
    level.  A write miss is not a writeback and vice versa. *)

type t = {
  mutable accesses : int;  (** references that reached this level *)
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;      (** write accesses that reached this level *)
  mutable writebacks : int;  (** dirty-line evictions at this level *)
}

val create : unit -> t

(** A fresh all-zero counter — the identity of {!add}. *)
val zero : unit -> t

(** [add a b] is a new counter holding the component-wise sums.  [add] is
    associative and commutative with {!zero} as identity, so merging
    per-worker counters is order-independent — the property the parallel
    experiment engine's deterministic result merging relies on. *)
val add : t -> t -> t

val equal : t -> t -> bool

(** [record ?write t ~hit] counts one access; [write] (default false)
    additionally bumps the write counter. *)
val record : ?write:bool -> t -> hit:bool -> unit

(** Count one dirty-line eviction. *)
val record_writeback : t -> unit

(** [miss_rate_vs ~total_refs t] is misses / total_refs (in [0, 1]);
    0 when [total_refs] is 0. *)
val miss_rate_vs : total_refs:int -> t -> float

(** Misses relative to accesses that reached this level. *)
val local_miss_rate : t -> float

val pp : Format.formatter -> t -> unit
