(** A multi-level cache hierarchy.

    An access is presented to the first (smallest, L1) level; on a miss it
    propagates to the next level, and so on.  A miss at the last level is a
    main-memory access.  Per-level statistics follow the paper's
    convention: each level's miss rate is reported against the {e total}
    number of references issued (see {!Stats.miss_rate_vs}). *)

type t

(** [create ?write_allocate ?prefetch_levels geoms] builds a hierarchy
    from the L1 geometry outward ([write_allocate] as in
    {!Level.create}; [prefetch_levels] lists 0-based level indices that
    get a next-line prefetcher).
    @raise Invalid_argument if [geoms] is empty. *)
val create :
  ?write_allocate:bool -> ?prefetch_levels:int list -> Level.geometry list -> t

val levels : t -> Level.t list

(** [access t ~write addr] sends one reference, a write iff [write], down
    the hierarchy.  Returns the index of the level that hit (0 = L1), or
    the number of levels when the access went to main memory. *)
val access : t -> write:bool -> int -> int
