(** Affine expressions over named loop variables:
    [c0 + c1*i + c2*j + ...].  These are the only index expressions the
    paper's analyses need (array subscripts in the benchmark programs are
    affine; irregular programs use {!Subscript.Gather}). *)

type t

val const : int -> t

val var : string -> t

(** [term c v] is [c * v]. *)
val term : int -> string -> t

val add : t -> t -> t

val sub : t -> t -> t

(** [scale k e] multiplies every coefficient and the constant by [k]. *)
val scale : int -> t -> t

(** Constant part. *)
val const_part : t -> int

(** Coefficient of a variable (0 when absent). *)
val coeff : t -> string -> int

(** Variables with non-zero coefficients, sorted. *)
val vars : t -> string list

(** [is_const e] holds when no variable appears. *)
val is_const : t -> bool

(** [rename f e] substitutes variable names. *)
val rename : (string -> string) -> t -> t

(** [subst v e' e] replaces variable [v] by expression [e'] in [e]. *)
val subst : string -> t -> t -> t

(** [shift v d e] replaces [v] by [v + d]; used by fusion alignment and
    loop normalization. *)
val shift : string -> int -> t -> t

(** [eval env e] with [env] giving each variable's value.
    @raise Not_found if a variable is unbound. *)
val eval : (string -> int) -> t -> int
