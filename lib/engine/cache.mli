(** Content-addressed on-disk result cache.

    Key = MD5 digest of the job's canonical spec string (kernel, size,
    strategy, machine, attached models) salted with the {e models
    version} — by default a digest of the running executable.  Any
    rebuild changes the version, so every old key silently stops being
    addressed: entries are invalidated {e by key}, never by mtime, and
    one build never reads another build's [Marshal] layout.  All of
    [mlc]'s subcommands run in one executable, so [mlc sweep] and
    [mlc bench] share entries.

    Value = [Marshal] of (canonical spec, {!Job.result}) — the per-level
    counters and the cost breakdown.  Entries are written to a temp file
    and renamed into place, so concurrent workers and concurrent
    processes can share one cache directory.

    Damaged entries (torn writes, disk faults, truncation) are moved to
    [<dir>/quarantine/] on first contact instead of silently reading as
    misses forever; [mlc cache stats] surfaces them, [mlc cache gc]
    reclaims them, and the [engine.cache.quarantined] counter records
    every quarantine. *)

type t

(** The models version used by default keys (memoized per process):
    ["exe-"] followed by the hex MD5 of [Sys.executable_name]. *)
val default_version : unit -> string

(** [open_ ?dir ?version ()] creates the directory if needed.  [dir]
    defaults to [MLC_CACHE_DIR], else ["_mlc_cache"].
    [version] defaults to {!default_version}. *)
val open_ : ?dir:string -> ?version:string -> unit -> t

val dir : t -> string

val version : t -> string

(** The hex key a spec is filed under (version-salted digest). *)
val key : t -> Job.spec -> string

(** Where damaged entries are moved: [<dir>/quarantine]. *)
val quarantine_dir : t -> string

(** Lookup.  A damaged or key-mismatched entry
    is quarantined and reads as a miss, so the caller recomputes. *)
val find : t -> Job.spec -> Job.result option

(** Store a result; IO errors (read-only dir, …) degrade to not caching.
    The temp file is always closed and removed when anything goes wrong
    mid-write — no stranded channels, no [.tmp] litter. *)
val store : t -> Job.spec -> Job.result -> unit

(** Truncate a stored entry in place (deterministic damage for the
    fault-injection tests; see {!Fault.kind}). *)
val corrupt : t -> Job.spec -> unit

(** {2 Maintenance (the [mlc cache] subcommand)} *)

type disk_stats = {
  entries : int;  (** readable-named [.bin] entries across all shards *)
  entry_bytes : int;
  quarantined_files : int;
  quarantined_bytes : int;
  tmp_files : int;  (** stale temp files from interrupted stores *)
}

(** Walk the cache directory (deterministic shard order). *)
val disk_stats : t -> disk_stats

type verify_report = { checked : int; intact : int; damaged : int }

(** Read every entry; quarantine the ones that do not unmarshal.
    Entries written under other model versions are still verifiable —
    damage means bytes, not staleness. *)
val verify : t -> verify_report

type gc_report = { removed_files : int; removed_bytes : int }

(** Remove stale temp files and everything in quarantine; with [~all],
    also remove every entry. *)
val gc : ?all:bool -> t -> gc_report
