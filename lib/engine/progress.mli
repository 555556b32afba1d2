(** Per-worker progress counters: jobs done, cache hits, simulated
    addresses streamed, wall time.  Rendered as a single live line on
    stderr (when it is a tty, or [~live:true]) and dumped as JSON for the
    machine-readable bench record.

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

val jobs_done : t -> int

val cache_hits : t -> int

val refs_streamed : t -> int

val elapsed : t -> float

val jobs_per_sec : t -> float

(** Cache hits over jobs done (0 before any job). *)
val hit_rate : t -> float

(** JSON object with the totals and the per-worker counters.  [extra]
    key/value pairs (values are raw JSON) are emitted first. *)
val to_json : ?extra:(string * string) list -> t -> string
