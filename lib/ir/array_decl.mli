(** A Fortran-style array variable: named, column-major, with dimensions
    in elements.  The first dimension varies fastest in memory. *)

type t = {
  name : string;
  dims : int list;      (** extents in elements, first = fastest *)
  elem_size : int;      (** bytes per element (8 = double, 4 = int) *)
}

(** @raise Invalid_argument on no dimensions, a non-positive extent or
    element size, or a byte size beyond [max_int]. *)
val make : ?elem_size:int -> string -> int list -> t

(** Total size in bytes. *)
val size_bytes : t -> int

(** [dim_strides t] gives, per dimension, the distance in {e elements}
    between consecutive indices of that dimension (column-major):
    [1; d1; d1*d2; ...]. *)
val dim_strides : t -> int list
