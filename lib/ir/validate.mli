(** Well-formedness checks for programs: every referenced array is
    declared with matching arity, every subscript only mentions bound loop
    variables, loop variables are not shadowed within a nest, every loop's
    trip count fits in an int, and every reference stays in bounds.

    One interval rule ({!Loop.values} over {!Expr.range}, overflow-checked)
    bounds each loop variable and subscript over the box of enclosing
    values.  It is exact for unit-step loops with constant bounds and
    conservative otherwise: [for i = 0 to 9 { for j = 0 to 9 - i {
    A(i + j) = 1 } }] on [A(10)] stays in bounds but is rejected.  Nothing
    inside a loop that runs for no outer value raises a range issue. *)

type issue = {
  nest : int;           (** index of the offending nest, -1 for global *)
  message : string;
}

val check : Program.t -> issue list

(** @raise Invalid_argument listing all issues when [check] is nonempty. *)
val check_exn : Program.t -> unit

val pp_issue : Format.formatter -> issue -> unit
