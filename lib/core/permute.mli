(** Loop permutation (Section 2.1).  Reorders a nest's loops; legality is
    checked against the dependence analysis, and bounds that reference a
    variable which would move inside them are rejected (no bound
    normalization is attempted). *)

open Mlc_ir

exception Illegal of string

(** [apply nest order] with [order] the loop variables outermost-first.
    @raise Illegal when not a permutation, when dependences forbid it, or
    when a loop bound would refer to an inner variable. *)
val apply : Nest.t -> string list -> Nest.t

(** Memory-order driven permutation: pick the legal order
    {!Mlc_analysis.Miss_predict.rank_permutations} ranks cheapest. *)
val optimize : Layout.t -> line:int -> Nest.t -> Nest.t
