(** Validation of Chrome [trace_event] JSON (the format [Obs.Sink.chrome]
    emits and perfetto loads).  Used by [mlc trace-check] and CI.

    Checks performed:
    - the file parses as JSON: either a bare event array or an object
      with a [traceEvents] array;
    - every event is an object with a string [ph] among B/E/i/I/C/M/X,
      integer [ts] >= 0, and integer [pid]/[tid]; B, C and i events
      carry a string [name];
    - timestamps are monotone (non-decreasing) in file order;
    - per (pid, tid), B and E events match like brackets (same name,
      LIFO order) and every span is closed by the end of the file;
    - C (counter) events carry a numeric [args.value]. *)

type stats = {
  events : int;
  spans : int;  (** matched B/E pairs *)
  counters : int;  (** C events *)
  instants : int;
  tids : int;  (** distinct (pid, tid) lanes *)
}

(** Validate an in-memory JSON document. *)
val validate_string : string -> (stats, string list) result

(** Validate a file on disk. *)
val validate_file : string -> (stats, string list) result

(** The JSON type and parser the checks read traces with. *)
module Json = Json
