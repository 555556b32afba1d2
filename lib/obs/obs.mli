(** Structured observability: nestable timed spans, monotonic counters,
    and a sink writing Chrome [trace_event] JSON (through {!Json})
    loadable in perfetto.

    Recording is explicit and domain-local: nothing is recorded unless a
    {!Buf.t} is installed in the current domain with {!with_buf}.  With no
    buffer installed, every entry point is one domain-local load and a
    branch — the disabled path is near-free, so instrumentation can live
    permanently in production code paths.

    Buffers are single-domain (no locks, no atomics on the hot path).  A
    parallel pool gives each worker its own buffer and merges them with
    {!Buf.merge} in {e submission order}: counter totals are sums, so the
    merged result is independent of how work was scheduled — the property
    that keeps [--jobs N] output byte-identical to [--jobs 1]. *)

type arg = [ `Int of int | `Float of float | `Str of string | `Bool of bool ]

type kind =
  | Span_begin
  | Span_end
  | Instant  (** a point event (a decision, a cache hit, ...) *)
  | Sample  (** a counter observation ([value] is the running total) *)

type event = {
  kind : kind;
  name : string;
  cat : string;
  ts : int;  (** microseconds since the epoch, monotone per buffer *)
  tid : int;  (** worker/thread attribution (buffer's [tid]) *)
  args : (string * arg) list;
  value : int;  (** meaningful for [Sample] only *)
}

(** Event buffers. *)
module Buf : sig
  type t

  (** [create ?tid ()] — [tid] is the worker attribution stamped on every
      event (default 0). *)
  val create : ?tid:int -> unit -> t

  (** Events in chronological (record) order. *)
  val events : t -> event list

  val n_events : t -> int

  (** Counter totals, sorted by name. *)
  val counters : t -> (string * int) list

  (** A single counter's total (0 when never bumped). *)
  val counter : t -> string -> int

  (** [merge ~into src] appends [src]'s events after [into]'s (each
      buffer's internal order preserved) and adds counter totals.
      Merging a list of buffers in a fixed order is deterministic. *)
  val merge : into:t -> t -> unit
end

(** [with_buf buf f] records everything [f] emits in the current domain
    into [buf] (restores the previous buffer afterwards, even on raise). *)
val with_buf : Buf.t -> (unit -> 'a) -> 'a

(** True iff a buffer is installed in the current domain. *)
val enabled : unit -> bool

(** {2 Spans} *)

(** [with_span name f] times [f] inside a nestable span (exception-safe). *)
val with_span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** {2 Point events and counters} *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit

(** [count ?n name] bumps monotonic counter [name] by [n] (default 1) and
    records a sample of the new running total. *)
val count : ?n:int -> string -> unit

(** {2 Sinks} *)

module Sink : sig
  type t

  (** Chrome [trace_event] JSON ([{"traceEvents": [...]}]), sorted by
      timestamp, B/E pairs per tid — load in [ui.perfetto.dev] or
      [chrome://tracing]. *)
  val chrome : out_channel -> t

  (** Write a buffer's events and counters to the sink. *)
  val write : t -> Buf.t -> unit
end
