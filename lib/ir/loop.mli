(** One loop of a nest:
    [for var = max(lo, lo_max) to min(hi, hi_min) step step].

    Bounds are affine in the variables of enclosing loops (triangular
    loops in LINPACKD, the element loops of a tiled nest).  [hi_min] gives the
    [min(KK+W-1, N)] clamp tiling introduces; [lo_max] the [max(1, c-i)]
    clamp wavefront (skewed) loops need.  A negative [step] iterates
    downward from [lo] to [hi] (loop reversal; clamps are not supported
    on downward loops). *)

type t = {
  var : string;
  lo : Expr.t;
  lo_max : Expr.t option;
  hi : Expr.t;
  hi_min : Expr.t option;
  step : int;
}

(** @raise Invalid_argument when [step = 0], or when a clamp is combined
    with a negative step. *)
val make :
  ?lo_max:Expr.t -> ?hi_min:Expr.t -> ?step:int -> string -> lo:Expr.t -> hi:Expr.t -> t

(** Simple [for var = lo to hi] with constant bounds. *)
val range : string -> int -> int -> t

(** Effective lower bound under [env] (applies the [lo_max] clamp). *)
val effective_lo : (string -> int) -> t -> int

(** Number of iterations executed under [env] (0 when empty). *)
val trip_count : (string -> int) -> t -> int

(** [iter env t f] calls [f] on [effective_lo env t + k * step] for [k]
    from 0 to [trip_count env t - 1], in order. *)
val iter : (string -> int) -> t -> (int -> unit) -> unit
