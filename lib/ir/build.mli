(** Small DSL for writing kernel programs compactly.  Open locally:

    {[
      let open Mlc_ir.Build in
      let a = arr "A" [ n; n ] and b = arr "B" [ n; n ] in
      let i = v "i" and j = v "j" in
      program "example" [ a; b ]
        [
          nest [ loop "j" 1 (n - 2); loop "i" 0 (n - 1) ]
            [ asn (w "A" [ i; j ]) [ r "B" [ i; j ] ; r "B" [ i; j +! 1 ] ] ];
        ]
    ]} *)

val arr : ?elem_size:int -> string -> int list -> Array_decl.t

(** Loop variable as an index expression. *)
val v : string -> Expr.t

(** Integer literal index. *)
val c : int -> Expr.t

(** [e +! k], [e -! k]: shift an index by a constant. *)
val ( +! ) : Expr.t -> int -> Expr.t

val ( -! ) : Expr.t -> int -> Expr.t

(** [e ** k] scales an index expression. *)
val ( ** ) : Expr.t -> int -> Expr.t

val r : string -> Expr.t list -> Ref_.t

val w : string -> Expr.t list -> Ref_.t

(** Gather-subscripted read/write in one dimension:
    [rg name table idx] reads [name(table(idx))]. *)
val rg : string -> int array -> Expr.t -> Ref_.t

val wg : string -> int array -> Expr.t -> Ref_.t

(** [asn lhs rhs ~flops] — reads then write. Default flop count is
    [max 0 (length rhs - 1)] (one op per additional operand). *)
val asn : ?flops:int -> Ref_.t -> Ref_.t list -> Stmt.t

val loop : string -> int -> int -> Loop.t

val loop_e : string -> Expr.t -> Expr.t -> Loop.t

val nest : Loop.t list -> Stmt.t list -> Nest.t

val program : ?time_steps:int -> string -> Array_decl.t list -> Nest.t list -> Program.t
