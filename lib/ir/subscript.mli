(** One subscript position of an array reference.

    [Affine] covers the dense scientific codes in the paper.  [Gather]
    models irregular accesses ([IRR500K]'s mesh relaxation, [CGM]'s sparse
    matvec, [BUK]'s bucket sort): the element index is looked up in a
    table indexed by an affine expression.  The load of the index array
    itself is modelled as a separate, explicit affine reference in the
    statement, so the simulator still sees its cache traffic. *)

type t =
  | Affine of Expr.t
  | Gather of { table : int array; index : Expr.t }

val affine : Expr.t -> t

val gather : table:int array -> index:Expr.t -> t

val is_affine : t -> bool

(** [eval env s] is the element index selected in this dimension.
    @raise Invalid_argument if a gather index falls outside the table. *)
val eval : (string -> int) -> t -> int

(** [lookup table i] is [table.(i)], the element a gather index [i]
    selects.
    @raise Invalid_argument, with the same message as {!eval}, if [i]
    falls outside the table. *)
val lookup : int array -> int -> int

(** Affine payload. @raise Invalid_argument on [Gather]. *)
val expr : t -> Expr.t

(** Apply a function to the affine index expression (gather: to the table
    index expression). *)
val map_expr : (Expr.t -> Expr.t) -> t -> t
