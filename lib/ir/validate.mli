(** Well-formedness checks for programs: every referenced array is
    declared with matching arity, every subscript only mentions bound loop
    variables, loop variables are not shadowed within a nest, every loop's
    trip count fits in an int, and every affine reference stays in bounds
    at the iteration-space corners (a cheap necessary condition; full
    checking would walk the space). *)

type issue = {
  nest : int;           (** index of the offending nest, -1 for global *)
  message : string;
}

val check : Program.t -> issue list

(** @raise Invalid_argument listing all issues when [check] is nonempty. *)
val check_exn : Program.t -> unit

val pp_issue : Format.formatter -> issue -> unit
