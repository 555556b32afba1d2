(** A perfect loop nest: loops listed outermost first around a body of
    statements.  All the paper's benchmark nests are perfect (or are
    modelled as a sequence of perfect nests). *)

type t = {
  loops : Loop.t list;  (** outermost first *)
  body : Stmt.t list;
}

val make : Loop.t list -> Stmt.t list -> t

val depth : t -> int

(** Innermost loop. @raise Invalid_argument on an empty nest. *)
val innermost : t -> Loop.t

(** All references in body order. *)
val refs : t -> Ref_.t list

(** Loop variables, outermost first. *)
val vars : t -> string list

(** [map_refs f t] rewrites every reference. *)
val map_refs : (Ref_.t -> Ref_.t) -> t -> t

(** Total iterations of the whole nest for constant bounds; triangular
    nests are counted by walking the iteration space. *)
val iterations : t -> int

(** References issued per full execution. *)
val ref_count : t -> int
