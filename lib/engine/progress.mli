(** Per-worker progress counters: jobs done, cache hits, simulated
    addresses streamed, wall time.  Rendered as a single live line on
    stderr (when it is a tty, or [~live:true]), summed up in one line
    after a run, and recorded as JSON in the bench's [BENCH_engine.json].

    Counters are per-worker slots written only by their owning domain;
    totals are summed on demand.  Everything user-visible goes to stderr
    so stdout stays byte-identical across worker counts. *)

type t

(** [create ~jobs ()] — [live] defaults to [stderr] being a tty, overridable
    with the [MLC_PROGRESS] env var ([0]/[no]/[false]/[off] force it off,
    any other value forces it on). *)
val create : ?live:bool -> jobs:int -> unit -> t

(** Announce [n] more expected jobs (the live line's denominator). *)
val expect : t -> int -> unit

(** One job finished on [worker].  [refs] is the number of simulated
    references the job streamed (0 for a cache hit). *)
val record : t -> worker:int -> cache_hit:bool -> refs:int -> unit

(** Final render + newline, if a live line was shown. *)
val finish : t -> unit

(** Jobs answered from the result cache, summed over workers. *)
val cache_hits : t -> int

(** Simulated references streamed, summed over workers. *)
val refs_streamed : t -> int

(** One line of totals: jobs, cache hits (and their share), references
    streamed, wall time and jobs per second.  [mlc sweep] and [mlc bench]
    print it on stderr after a run. *)
val summary : t -> string

(** The totals and the per-worker counters as JSON object members. *)
val json_fields : t -> (string * Mlc_obs.Json.t) list
