(** Executes a program's memory-reference stream against a cache
    hierarchy.

    One walker generates every stream: each nest is compiled once into
    columns, each a constant plus one stride per loop level — one per
    reference for its affine part (base, pads and affine dimensions
    folded in), one per gather subscript for its table index — and the
    outer loops are walked with one add per column and level.  The
    innermost loop of an all-affine nest is handed to the simulator in
    two-loop segments: rows of iterations, one row per iteration of the
    next-outer loop, whenever the innermost bounds do not mention that
    loop's variable, and otherwise one row per innermost execution.
    Nests with a
    gather, and zero-depth bodies, are issued access by access, a
    gather's address being its column plus one table load per gather
    subscript.  Whatever consumes the stream — the reference cascade,
    {!Mlc_cachesim.Fast_sim}, or the address buffer behind {!trace} —
    sees the same accesses in the same order.

    A gather index outside its table raises [Invalid_argument] with
    {!Subscript.eval}'s message, from {!run} on either backend and from
    {!trace} alike. *)

type result = {
  total_refs : int;
  misses : int list;       (** per level, L1 first *)
  miss_rates : float list; (** per level, vs total refs (paper convention) *)
  memory_accesses : int;
  writebacks : int;        (** dirty-line evictions, summed over levels *)
  flops : int;
  cycles : float;
  seconds : float;
  mflops : float;
  levels : Mlc_cachesim.Stats.t list;
      (** per-level counter snapshots, L1 first *)
}

(** Which simulator to ask for.  [`Reference] walks the
    {!Mlc_cachesim.Hierarchy} cascade access by access; [`Fast] uses
    {!Mlc_cachesim.Fast_sim}, which bulk-accounts steady runs of L1 hits.
    The two produce identical results for any direct-mapped machine
    without hardware prefetching (the differential test suite enforces
    this).  [`Fast] models neither associative levels nor prefetch, so
    {!run} serves such a request on the reference cascade. *)
type backend = [ `Reference | `Fast ]

val backend_name : backend -> string

(** [run ?backend ?write_allocate ?prefetch_levels machine layout program]
    simulates one full execution on a fresh simulator.  It is the one
    function that chooses and builds a simulator.  [backend] defaults to
    [`Fast], which runs {!Mlc_cachesim.Fast_sim} when every level of
    [machine] is direct-mapped and [prefetch_levels] is empty; otherwise
    the run goes to the reference cascade and, when [`Fast] was asked for,
    counts one [sim.fast.fallbacks].  [write_allocate] (default true) and
    [prefetch_levels] (0-based levels with a next-line prefetcher, default
    none) are {!Mlc_cachesim.Hierarchy.create}'s. *)
val run :
  ?backend:backend ->
  ?write_allocate:bool ->
  ?prefetch_levels:int list ->
  Mlc_cachesim.Machine.t ->
  Layout.t ->
  Program.t ->
  result

(** [run_sim sim machine layout program] runs against a caller-created
    {!Mlc_cachesim.Fast_sim}, which must be fresh: its counters become the
    result. *)
val run_sim :
  Mlc_cachesim.Fast_sim.t ->
  Mlc_cachesim.Machine.t ->
  Layout.t ->
  Program.t ->
  result

(** Full address trace (byte addresses, program order), produced by the
    same walker as {!run}.  Allocates the whole trace: one int per
    reference. *)
val trace : Layout.t -> Program.t -> int array
