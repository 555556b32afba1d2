(** A Fortran-style array variable: named, column-major, with dimensions
    in elements.  The first dimension varies fastest in memory. *)

type t = {
  name : string;
  dims : int list;      (** extents in elements, first = fastest *)
  elem_size : int;      (** bytes per element (8 = double, 4 = int) *)
}

val make : ?elem_size:int -> string -> int list -> t

(** Total elements. *)
val elements : t -> int

(** Total size in bytes. *)
val size_bytes : t -> int

(** Column size (extent of the first dimension) in bytes: the span of one
    group-reuse "arc" in the paper's layout diagrams. *)
val column_bytes : t -> int

(** [dim_strides t] gives, per dimension, the distance in {e elements}
    between consecutive indices of that dimension (column-major):
    [1; d1; d1*d2; ...]. *)
val dim_strides : t -> int list
