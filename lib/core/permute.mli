(** Loop permutation (Section 2.1).  Reorders a nest's loops; legality is
    checked against the dependence analysis, and bounds that reference a
    variable which would move inside them are rejected (no bound
    normalization is attempted — tiled nests keep their strip loops
    outside their element loops). *)

open Mlc_ir

exception Illegal of string

(** [apply nest order] with [order] the loop variables outermost-first.
    @raise Illegal when not a permutation, when dependences forbid it, or
    when a loop bound would refer to an inner variable. *)
val apply : Nest.t -> string list -> Nest.t

(** Like {!apply} but skips the dependence test; the caller must have
    established legality by other means.  {!Tiling.tile} uses this after
    checking full permutability of the {e original} band — once loops are
    strip-mined, the strip variables no longer appear in subscripts and
    the naive dependence model can no longer see that the traversal stays
    forward.  Bounds scoping is still enforced. *)
val apply_unchecked : Nest.t -> string list -> Nest.t

(** Permute so the given variable becomes innermost (common case of
    improving spatial locality). *)
val innermost : Nest.t -> string -> Nest.t

(** Memory-order driven permutation: pick the legal order
    {!Mlc_analysis.Miss_predict.rank_permutations} ranks cheapest. *)
val optimize : Layout.t -> line:int -> Nest.t -> Nest.t
