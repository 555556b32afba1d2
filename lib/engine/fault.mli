(** Job failures as data, and a deterministic fault-injection hook for
    testing crashes, slow jobs, and corrupt cache entries.

    Every job is a pure function of its spec, so a failed job would fail
    the same way again: the engine runs each job once and records a
    failure as a {!failure}.  A re-run of the same sweep resumes from the
    result cache.  With no injected faults the hook is one memoized
    empty-list check — default behavior, and default output, is
    unchanged.

    Injection is driven by rules, installed either programmatically
    ({!set_rules}) or from the [MLC_FAULTS] environment variable the
    first time a rule is consulted.  Rules are matched by substring
    against the job's canonical spec string, so a test can target one
    sweep cell ([n=80]) or every cell of a kernel ([jacobi]).  Matching
    is deterministic: the same spec always hits the same rules. *)

(** What an injected fault does when its pattern matches. *)
type kind =
  | Crash  (** raise {!Injected} *)
  | Slow of float  (** sleep this many seconds before the job body runs *)
  | Corrupt
      (** mark the spec so the engine truncates its cache entry right
          after storing it — exercises quarantine-and-recompute *)

type rule = { pattern : string; kind : kind }

(** Raised by {!inject} when a [Crash] rule matches. *)
exception Injected of string

(** [parse s] — rules are separated by [';']; each rule is
    [crash:PATTERN], [slow:PATTERN:MS] or [corrupt:PATTERN].
    @raise Invalid_argument on a malformed rule. *)
val parse : string -> rule list

(** Install rules programmatically (tests).  [set_rules []] disables
    injection. *)
val set_rules : rule list -> unit

(** The injection hook.  [inject canonical] applies every rule matching
    [canonical] — the installed ones, else those parsed from [MLC_FAULTS]
    on first use (a malformed [MLC_FAULTS] is reported once on stderr and
    ignored): it sleeps for [Slow] and raises {!Injected} for [Crash].
    Called by the engine at the start of every job; no-op when no rule
    matches. *)
val inject : string -> unit

(** True when a [Corrupt] rule matches [canonical] — consulted by the
    engine after a cache store. *)
val wants_corrupt : string -> bool

(** Everything known about a job that failed. *)
type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
      (** always 1: a job runs once.  Kept because the perfbench harness
          reads it. *)
}

(** Prints the exception. *)
val pp_failure : Format.formatter -> failure -> unit
