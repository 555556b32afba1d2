(** Fixed worker pool over OCaml 5 domains.

    [map_opt] runs [f] on every element using up to [jobs] domains fed
    from a shared queue (an atomic next-index counter), and returns the
    results {e in input order} — the merge is deterministic no matter how
    the scheduler interleaved the workers.  If any call to [f] raises,
    the remaining workers stop after their current element, every domain
    is joined, and the first exception is re-raised with its backtrace: a
    failing job fails the run instead of hanging it or leaking domains.

    Callers that want per-element failures as data (the engine's
    [`Collect] policy) make [f] total — returning a [result] — and use
    [stop] to decide whether a produced error should drain the pool
    ([`Fail_fast]) or not. *)

(** [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int

(** [map_opt ?jobs ?cancel ?stop f items] — [f] receives the worker
    index ([0..jobs-1], worker 0 is the calling domain) for per-worker
    accounting; it must be safe to call from multiple domains at once.
    [jobs] defaults to {!default_jobs} and is clamped to
    [1 .. length items].  Workers stop claiming new elements as soon as
    [cancel] (an external interruption flag, e.g. set from a SIGINT
    handler) is true or [stop] returned true on any produced result;
    elements never claimed come back as [None] in input order, and with
    neither every slot is [Some].  Elements already running when the
    pool drains still complete (cooperative cancellation — nothing is
    preempted). *)
val map_opt :
  ?jobs:int ->
  ?cancel:bool Atomic.t ->
  ?stop:('b -> bool) ->
  (worker:int -> 'a -> 'b) ->
  'a array ->
  'b option array
