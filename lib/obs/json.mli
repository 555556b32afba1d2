(** JSON values, a minimal parser and the one printer.

    Every JSON file the project writes — Chrome traces, the bench's
    [BENCH_engine.json] and [BENCH_fastsim.json] — is built as a {!t} and
    printed by {!to_string}, so escaping lives in one place.  The repo
    deliberately has no JSON dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(** @raise Parse_error on malformed input.  A number that reads as an
    OCaml [int] is an [Int]; any other number is a [Float]. *)
val parse : string -> t

(** [to_string v] prints [v] followed by a newline.  Containers at the
    top level and one level below it put one member per line; deeper ones
    print on one line.  Strings escape quotes, backslashes and control
    characters; a float prints in its shortest round-tripping form (with a
    [.0] when it is integral), and a non-finite float as [null].
    [parse (to_string v) = v] for every [v] without floats. *)
val to_string : t -> string

(** [fixed digits x] is [Float x] rounded to [digits] decimals, so that a
    measured value prints as, say, [6.687]. *)
val fixed : int -> float -> t
