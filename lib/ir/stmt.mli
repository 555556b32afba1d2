(** A statement is an ordered list of references (the simulator issues
    them left to right — reads before the write, like a store at the end
    of an expression evaluation) plus a floating-point operation count for
    MFLOPS accounting. *)

type t = {
  refs : Ref_.t list;
  flops : int;
}

val make : ?flops:int -> Ref_.t list -> t

(** [assign w rs] orders reads first, then the write — the common shape. *)
val assign : ?flops:int -> Ref_.t -> Ref_.t list -> t

val reads : t -> Ref_.t list

val writes : t -> Ref_.t list

val map_refs : (Ref_.t -> Ref_.t) -> t -> t
