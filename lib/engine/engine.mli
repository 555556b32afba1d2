(** The experiment engine: content-addressed caching in front of the
    domain pool.

    [run specs] resolves each spec against the cache, executes the misses
    on the worker pool, stores them back, and returns results in spec
    order — so output built from the results is identical for any worker
    count, and a warm cache replays a whole sweep without simulating a
    single reference.

    Determinism contract: [Job.execute] is a pure function of the spec,
    the pool returns results in input order, and cached results are the
    marshalled bytes of a previous execution — therefore the result array
    is byte-for-byte independent of [jobs], of scheduling, and of which
    entries were cache hits.

    Because a job is pure, a failed job would fail the same way again:
    every job runs once, and a re-run of the same specs resumes from the
    cache, recomputing only the cells it does not hold. *)

(** [run ?cache ?progress ?obs ?jobs specs].  [jobs] defaults to
    {!Pool.default_jobs}.  Fail-fast error policy: on a job failure the
    pool drains, completed jobs' Obs buffers are still merged into
    [obs], and the first (lowest-index) failure's exception is re-raised
    with its backtrace.

    When [obs] is given, each job executes inside a private
    [Mlc_obs.Obs] buffer tagged with its worker index and wrapped in a
    ["job"] span named [Job.describe spec]; per-job buffers are merged
    into [obs] in spec order, so counter totals and merged event
    sequences do not depend on [jobs].  (Cache-hit counters do depend on
    the cache's prior contents — pass no cache for reproducible
    counts.) *)
val run :
  ?cache:Cache.t ->
  ?progress:Progress.t ->
  ?obs:Mlc_obs.Obs.Buf.t ->
  ?jobs:int ->
  Job.spec array ->
  Job.result array

(** [run_collect] — the error-isolating variant: each cell comes back as
    [Some (Ok result)], [Some (Error failure)] (the cell failed; see
    {!Fault.failure}), or [None] (the cell never ran
    because the pool drained first).  With [~stop_on_failure:true] the
    first failure drains the pool ([`Fail_fast] with failures as data);
    with the default [false] ([`Collect]) every cell runs regardless —
    one poisoned cell no longer discards a thousand finished ones.
    [cancel] is a cooperative interruption flag (e.g. set from a SIGINT
    handler): once true, workers stop claiming cells and the slots never
    claimed come back [None].

    When no cell fails and no cancellation fires, the [Ok] payloads are
    exactly {!run}'s results — same order, same bytes, for any [jobs]
    and either [stop_on_failure]. *)
val run_collect :
  ?cache:Cache.t ->
  ?progress:Progress.t ->
  ?obs:Mlc_obs.Obs.Buf.t ->
  ?cancel:bool Atomic.t ->
  ?stop_on_failure:bool ->
  ?jobs:int ->
  Job.spec array ->
  (Job.result, Fault.failure) result option array

(** Per-level counters summed over all results with the associative
    [Stats.add] — totals independent of merge order.
    @raise Invalid_argument when results span machines with different
    level counts *)
val merged_stats : Job.result array -> Mlc_cachesim.Stats.t list
