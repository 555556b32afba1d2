(** The command-line layer shared by [mlc] and the bench harness: one
    cmdliner term per common option, the observability wrapper behind
    [--trace]/[--metrics], and an evaluator that turns bad input into a
    one-line error. *)

open Cmdliner

(** Integers [>= 1]; anything else is a usage error naming the value. *)
val pos_int : int Arg.conv

(** [--machine M] over {!Mlc_engine.Job.machines} (default ultrasparc). *)
val machine_spec : Mlc_engine.Job.machine_spec Term.t

(** The machine [--machine] names. *)
val machine : Mlc_cachesim.Machine.t Term.t

(** [--strategy S] / [-s S] over {!Mlc_engine.Job.strategies} (default
    pad). *)
val strategy : Locality.Pipeline.strategy Term.t

(** [jobs names]: worker domains under the option [names] (default: the
    machine's core count; at least 1). *)
val jobs : string list -> int Term.t

(** [--cache-dir DIR]. *)
val cache_dir : string option Term.t

(** The result cache selected by [--no-cache] and [--cache-dir]: [None]
    when bypassed, otherwise the opened cache. *)
val cache : Mlc_engine.Cache.t option Term.t

(** [--backend B]: fast (default) or reference. *)
val backend : Mlc_ir.Interp.backend Term.t

(** [--retries N], a non-negative per-job retry budget (default 0). *)
val retries : int Term.t

(** What [--trace FILE] and [--metrics] asked for. *)
type obs

val obs : obs Term.t

(** [with_obs ~span obs body] runs [body None] when [obs] asks for
    nothing.  Otherwise it runs [body (Some buf)] with [buf] installed
    and inside a [span] of category [cli], then writes the Chrome trace
    (a note goes to stderr) and prints the counters on stdout after a
    [metrics:] line. *)
val with_obs :
  span:string -> obs -> (Mlc_obs.Obs.Buf.t option -> 'a) -> 'a

(** [eval ?argv cmd] evaluates [cmd] and exits.  A
    {!Mlc_engine.Job.Spec_error} or {!Locality.Fusion.Illegal} escaping
    the command is bad input: its message is printed on one stderr line
    and the exit status is [Cmd.Exit.some_error].  Any other exception is
    a bug, reported as cmdliner reports one ([Cmd.Exit.internal_error]). *)
val eval : ?argv:string array -> unit Cmd.t -> 'a
