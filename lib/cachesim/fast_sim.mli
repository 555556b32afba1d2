(** Fast simulation backend for direct-mapped hierarchies.

    A drop-in replacement for the reference {!Hierarchy}/{!Level} cascade
    that produces {e identical} per-level {!Stats.t} (including writes and
    writebacks) for any hierarchy of direct-mapped levels without
    hardware prefetch: same filtered semantics (a level only sees the
    misses of the level above), same write-allocate behaviour.  The speed
    comes from {!block}, which takes a two-loop segment per call,
    accounts whole runs of guaranteed L1 hits in bulk instead of walking
    the cascade per access, and sends the segment's L1 misses to the
    lower levels in batches, one level at a time; and from a leaner
    per-access path (no LRU or prefetch bookkeeping).

    Not modelled: associative levels and next-line prefetching.  Callers
    must fall back to the reference path for either (as [Interp.run]
    does). *)

type t

(** [create ?write_allocate geoms] builds a simulator for the given levels,
    L1 first, with the same geometry validation as {!Level.create}, and
    lines of at least 4 bytes (each line's address and dirty bit share
    one word).
    @raise Invalid_argument on an empty list, invalid geometry, or a
    level whose [assoc] is not 1 (the message names the level, [L1]
    first). *)
val create : ?write_allocate:bool -> Level.geometry list -> t

(** [access t ?write addr] sends one reference down the cascade and
    returns the index of the level that hit (0 = L1), or the number of
    levels for a main-memory access — the same contract as [Hierarchy.access]. *)
val access : t -> ?write:bool -> int -> int

(** [block t ~bases ~strides ~writes ~count ~outer_strides ~outer_count]
    issues [outer_count] rows of [count] iterations of a loop body: row
    [o], iteration [j] accesses, for each reference [r] in order, address
    [bases.(r) + o * outer_strides.(r) + j * strides.(r)], as a write iff
    [writes.(r)]; rows, then iterations, then references.  Exactly
    equivalent to issuing every access through {!access}, but segments in
    which every reference stays within an L1-resident line are accounted
    in bulk.  Nothing is left pending when it returns.
    @raise Invalid_argument when the four arrays differ in length. *)
val block :
  t ->
  bases:int array ->
  strides:int array ->
  writes:bool array ->
  count:int ->
  outer_strides:int array ->
  outer_count:int ->
  unit

(** Live per-level counters, L1 first (not copies). *)
val level_stats : t -> Stats.t list

(** Fast-path accounting: how {!block} consumed its iterations, counted
    per row (rows that continue one another count as one).
    [bulk_iterations + seq_iterations] is the total iteration count seen;
    a high bulk share is what makes this backend fast. *)
type metrics = {
  bulk_segments : int;
      (** all-hit segments accounted in bulk: one per advance of the
          steady phase to the next line crossing *)
  bulk_iterations : int;  (** iterations covered by those segments *)
  seq_iterations : int;
      (** iterations replayed access by access: conflict iterations, and
          each crossing iteration that missed and ran in place inside the
          steady phase *)
}

val metrics : t -> metrics
