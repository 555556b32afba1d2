(** An array reference: array name + one subscript per dimension, plus the
    access kind (read or write).  References are 0-based internally; the
    kernels translate Fortran's 1-based loops when they are built. *)

type kind = Read | Write

type t = {
  array : string;
  subs : Subscript.t list;
  kind : kind;
}

val read : string -> Subscript.t list -> t

val write : string -> Subscript.t list -> t

(** Read with all-affine subscripts. *)
val read_a : string -> Expr.t list -> t

(** Write with all-affine subscripts. *)
val write_a : string -> Expr.t list -> t

val is_write : t -> bool

(** All subscripts affine? (Needed for the analyses; gather references are
    simulated but not analyzed for reuse.) *)
val is_affine : t -> bool

(** [map_exprs f r] rewrites each subscript's expression (used by loop
    transformations). *)
val map_exprs : (Expr.t -> Expr.t) -> t -> t

(** References to the same array whose subscripts differ only in constant
    terms — the paper's "uniformly generated" references, the unit of
    group reuse. @return [None] when not uniformly generated. *)
val constant_difference : t -> t -> int list option

val equal : t -> t -> bool
