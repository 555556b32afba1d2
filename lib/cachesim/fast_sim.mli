(** Fast simulation backend for direct-mapped hierarchies.

    A drop-in replacement for the reference {!Hierarchy}/{!Level} cascade
    that produces {e identical} per-level {!Stats.t} (including writes and
    writebacks) for any hierarchy of direct-mapped levels without
    hardware prefetch: same filtered semantics (a level only sees the
    misses of the level above), same write-allocate behaviour.  The speed
    comes from {!block}, which takes a two-loop segment per call and
    accounts whole runs of guaranteed L1 hits in bulk instead of walking
    the cascade per access; from {!stream}, which takes a buffer of
    addresses per call; and from a leaner per-access path (no LRU or
    prefetch bookkeeping) whose loops call nothing.  Each L1 miss walks
    L2 and the levels below where it happens.

    Not modelled: associative levels and next-line prefetching.  Callers
    must fall back to the reference path for either (as [Interp.run]
    does). *)

type t

(** [create ?write_allocate geoms] builds a simulator for the given levels,
    L1 first.  Each level's geometry goes through {!Level.shape}, the
    check {!Level.create} makes; on top of it a level must be
    direct-mapped and have lines of at least 4 bytes (each line's address
    and dirty bit share one word).
    @raise Invalid_argument on an empty list, a geometry {!Level.shape}
    rejects, lines under 4 bytes, or a level whose [assoc] is not 1 (the
    message names the level, [L1] first). *)
val create : ?write_allocate:bool -> Level.geometry list -> t

(** [access t ~write addr] sends one reference, a write iff [write], down
    the cascade and returns the index of the level that hit (0 = L1), or
    the number of levels for a main-memory access — the same contract as
    [Hierarchy.access].  The walker sends nothing this way ({!block} and
    {!stream} take its streams); it is the per-access form that the
    differential tests hold against [Hierarchy.access]. *)
val access : t -> write:bool -> int -> int

(** [block t ~bases ~strides ~writes ~count ~outer_strides ~outer_count]
    issues [outer_count] rows of [count] iterations of a loop body: row
    [o], iteration [j] accesses, for each reference [r] in order, address
    [bases.(r) + o * outer_strides.(r) + j * strides.(r)], as a write iff
    [writes.(r)]; rows, then iterations, then references.  Exactly
    equivalent to issuing every access through {!access}.

    Access by access, iterations run through one small kernel whose loop
    calls nothing: it keeps every reference's address, stride and write
    bit in one array for the whole call, and sends each L1 miss down the
    levels below as it happens.  A call where the bulk path cannot pay
    (below) runs every row through that kernel and nothing else.

    Otherwise a row starts access by access.  After an iteration that
    hits throughout, or right after the first iteration of an
    access-by-access phase when a probe finds every reference's line of
    that iteration resident (and dirty if the reference writes), the
    following iterations are accounted in bulk.  Bulk iterations jump
    from one L1 line crossing to the next by a per-row calendar: a
    stride-[s] reference's line crossings repeat every line / gcd(|s|,
    line) iterations, so the calendar lists, per residue of that period,
    the references that change line there.  It is built once per row,
    or once per call when every row starts each reference at the same
    offset within its line; a row with no crossing left is one bulk
    segment.  At a crossing, the references that cross first leave
    their lines; then one that crosses onto a line that is not resident
    is installed right there (its miss counted and sent down) when no
    other reference's current line sits in that L1 set.  A clash, or a
    write miss without write-allocate, sends the row back to
    access-by-access simulation, from that reference.  The whole call
    runs access by access when half or more of its accesses cross a
    line, or when its calendar would serve fewer than four periods of
    iterations.
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

(** [stream t buf n] issues the [n] accesses stored in [buf]: access [k]
    is to byte address [buf.(2 * k)], a write iff [buf.(2 * k + 1)] is 1
    (it must be 0 or 1).  Exactly equivalent to [n] calls to {!access} in
    order.  They go through L1 and below by the same step as {!block}'s
    kernel.  It counts nothing in {!metrics}.  The
    walker ([Interp]) sends gather nests this way, one buffer at a time.
    @raise Invalid_argument when [n] is negative or [buf] holds fewer
    than [2 * n] entries. *)
val stream : t -> int array -> int -> unit

(** Live per-level counters, L1 first (not copies). *)
val level_stats : t -> Stats.t list

(** Fast-path accounting: how {!block} consumed its iterations, counted
    per row (rows that continue one another count as one).
    [bulk_iterations + seq_iterations] is the total iteration count seen;
    a high bulk share is what makes this backend fast. *)
type metrics = {
  bulk_segments : int;
      (** segments accounted in bulk: one per advance of the steady phase
          to the next line crossing *)
  bulk_iterations : int;
      (** iterations covered by those segments, including crossing
          iterations whose misses were installed in place *)
  seq_iterations : int;
      (** {!block}'s iterations run access by access, through its
          kernel: the first of each row; after it, every iteration up to
          and including the first that hits throughout, unless the probe
          lets the bulk path start at once; after a clash (a crossing
          onto a set that another reference's line still holds once the
          crossing references have left theirs, or a write miss without
          write-allocate) the same, the clash's own
          iteration counting here; and every iteration of a call that
          the bulk path cannot pay for (see {!block}).  Accesses sent
          through {!access} or {!stream} are not iterations and count
          nowhere here. *)
}

val metrics : t -> metrics
