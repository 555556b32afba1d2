(** A whole program: declared arrays plus a sequence of loop nests
    (executed in order, possibly wrapped in a repeated outer time loop
    for iterative kernels). *)

type t = {
  name : string;
  arrays : Array_decl.t list;
  nests : Nest.t list;
  time_steps : int;  (** whole nest sequence repeated this many times *)
}

val make : ?time_steps:int -> string -> Array_decl.t list -> Nest.t list -> t

(** References issued by one full execution. *)
val ref_count : t -> int

(** Floating-point operations of one full execution. *)
val flop_count : t -> int

val map_nests : (Nest.t -> Nest.t) -> t -> t
