(** Address-trace utilities.

    A trace is a sequence of byte addresses.  The interpreter feeds the
    hierarchy directly for speed, but traces are convenient in tests and
    for replaying canned access patterns (e.g. tile footprints when
    checking self-interference). *)

type t = int array

(** [replay hierarchy trace] pushes every address through the hierarchy. *)
val replay : Hierarchy.t -> t -> unit

(** [strided ~base ~stride ~count] is [base, base+stride, ...]. *)
val strided : base:int -> stride:int -> count:int -> t

(** [interleave traces] round-robins the given traces: one element of
    each per step, skipping exhausted traces, preserving order — the
    access pattern of references progressing together in a loop body. *)
val interleave : t list -> t

(** [repeat n trace] repeats a trace [n] times (an outer loop). *)
val repeat : int -> t -> t

(** Distinct cache lines touched by the trace for a given line size. *)
val lines_touched : line:int -> t -> int
