(** Fast simulation backend for the paper's machine shape.

    A drop-in replacement for the reference {!Hierarchy}/{!Level} cascade
    that produces {e identical} per-level {!Stats.t} (including writes and
    writebacks) for exactly two direct-mapped levels under write-allocate
    and without hardware prefetch, the shape of the paper's UltraSparc I
    (16K/32B L1 over 512K/64B L2): same filtered semantics (L2 only sees
    L1's misses), same dirty-line accounting.  The speed comes from
    {!block}, which takes a two-loop segment per call and accounts whole
    runs of guaranteed L1 hits in bulk instead of walking the cascade per
    access; from {!stream}, which takes a buffer of addresses per call;
    and from a lean per-access path (no LRU or prefetch bookkeeping)
    whose loops call nothing: each L1 miss steps L2 where it happens,
    with both levels' state in the loop's locals.

    Not modelled: one level, three or more, associative levels,
    no-write-allocate and next-line prefetching.  Callers must fall back
    to the reference path for any of them (as [Interp.run] does). *)

type t

(** [supports ~write_allocate ~prefetch geoms] holds when this backend
    simulates the levels [geoms] (L1 first) under that write policy and
    prefetch: exactly two levels, each direct-mapped, with a geometry
    {!Level.shape} accepts and lines of at least 4 bytes (each line's
    address and dirty bit share one word), under write-allocate and
    without prefetch.  It is the one test of what this backend takes:
    {!create} rejects every other level list, and [Interp.run] sends
    such machines to the reference cascade. *)
val supports : write_allocate:bool -> prefetch:bool -> Level.geometry list -> bool

(** [create geoms] builds a simulator for the given levels, L1 then L2,
    which {!supports} must take under write-allocate without prefetch.
    @raise Invalid_argument on any other list, the message naming why:
    a list that is not two levels long, a level whose [assoc] is not 1
    (the message names the level, [L1] first), a geometry {!Level.shape}
    rejects, or lines under 4 bytes. *)
val create : Level.geometry list -> t

(** [access t ~write addr] sends one reference, a write iff [write],
    through L1 and, on a miss, L2, and returns the index of the level
    that hit (0 = L1, 1 = L2), or 2 for a main-memory access — the same
    contract as [Hierarchy.access].  The walker sends nothing this way
    ({!block} and {!stream} take its streams); it is the per-access form
    that the differential tests hold against [Hierarchy.access]. *)
val access : t -> write:bool -> int -> int

(** [block t ~bases ~strides ~writes ~count ~outer_strides ~outer_count]
    issues [outer_count] rows of [count] iterations of a loop body: row
    [o], iteration [j] accesses, for each reference [r] in order, address
    [bases.(r) + o * outer_strides.(r) + j * strides.(r)], as a write iff
    [writes.(r)]; rows, then iterations, then references.  Exactly
    equivalent to issuing every access through {!access}.

    Access by access, iterations run through one small kernel whose loop
    calls nothing: it keeps every reference's address, stride and write
    bit in one array for the whole call, and steps L2 on each L1 miss as
    it happens.  A call where the bulk path cannot pay
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
    segment.

    At a crossing, each listed reference's new line hits or is
    installed right there, its miss counted and sent to L2: one tag
    check per reference.  This is exact only where no two references
    hold different lines in one L1 set, and a clash proof decides where
    that is before the row's crossing passes run.  Two references
    [d] bytes apart are ⌊d/line⌋ or ⌈d/line⌉ lines apart, and their
    distance is linear in the iteration, so over iterations where it
    lies in [\[d_lo, d_hi\]] their line distance lies in
    [\[⌊d_lo/line⌋, ⌈d_hi/line⌉\]]; they cannot clash when that holds no
    nonzero multiple of the L1 set count.  A pair whose distance is the
    same in every row is proved once per call.  The proof needs no
    slack around an iteration: the lines it compares are the ones the
    references hold at that iteration, and a line a crossing reference
    is leaving, which an install may evict, is read by no later access.
    A row the proof does not clear runs its bulk iterations only up to
    the first iteration where a pair may clash, access by access from
    there to the first iteration past the clash, and then starts over.
    A reference with the same base, stride and outer stride as an
    earlier one (the same address at every iteration) leaves the
    calendar: its write becomes the earlier one's dirty bit, and L2
    sees the earlier one's write bit, as the per-access cascade has it
    hit right after the earlier one.

    The whole call runs access by access when half or more of its
    accesses cross a line, when its calendar would serve fewer than four
    periods of iterations, or when one of its addresses may lie beyond
    2^60 either way (a base, stride times count or outer stride times
    rows beyond 2^58), where the proof's distances could wrap.
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
    order.  They go through L1 and L2 by the same step as {!block}'s
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
          lets the bulk path start at once; from an iteration where the
          clash proof finds that two references may hold different lines
          in one L1 set, up to the first iteration past that clash, and
          then the same again; and every iteration of a call that the
          bulk path cannot pay for (see {!block}).  Accesses sent
          through {!access} or {!stream} are not iterations and count
          nowhere here. *)
}

val metrics : t -> metrics
