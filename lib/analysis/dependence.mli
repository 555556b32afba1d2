(** Constant-distance data-dependence testing between affine references,
    used for loop fusion and permutation legality.

    The solver handles the shape every benchmark in the paper exhibits:
    in each dimension the subscript is [±var + const] (or a constant).
    Anything else is answered conservatively with [Unknown]. *)

open Mlc_ir

type distance =
  | Independent              (** provably never the same element *)
  | Distance of (string * int) list
      (** per-variable iteration distance [d]: [r2] at iteration [I + d]
          touches what [r1] touched at [I] *)
  | Unknown                  (** assume dependence, direction unknown *)

(** [between r1 r2] for references to the same array; [Independent] for
    different arrays. *)
val between : Ref_.t -> Ref_.t -> distance

(** [fusion_legal ~shift n1 n2] — can the bodies be fused iteration-wise
    with the second body executing [shift] iterations of the outermost
    loop behind the first?  True when every cross-nest dependence keeps
    source before sink in the fused order. *)
val fusion_legal : shift:int -> Nest.t -> Nest.t -> bool

(** Smallest non-negative shift (≤ [max_shift]) making fusion legal. *)
val min_legal_shift : max_shift:int -> Nest.t -> Nest.t -> int option

(** [permutation_legal nest order] — legality of reordering the nest's
    loops into [order] (a permutation of the loop variables): every
    dependence distance vector must stay lexicographically non-negative. *)
val permutation_legal : Nest.t -> string list -> bool
