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

(** What {!values} finds a loop variable takes when each enclosing
    variable ranges over an interval: every value lies in
    [Between (least, greatest)], and the widest run, from the earliest
    start to the latest end, has a trip count that fits in an int; or the
    loop runs no iteration for any outer value ([Never]); or a bound or
    the widest run's trip count does not fit in an int ([Too_wide]). *)
type values = Between of int * int | Never | Too_wide

(** [values env t], each enclosing variable [v] ranging over [env v]:
    {!Expr.range} of the bounds, clamps applied, for either step
    direction.  Exact for constant bounds; otherwise the least and
    greatest value over the box of outer values.
    @raise Not_found if a bound names a variable [env] does not bind. *)
val values : (string -> int * int) -> t -> values

(** Number of iterations executed under [env] (0 when empty). *)
val trip_count : (string -> int) -> t -> int

(** [iter env t f] calls [f] on [effective_lo env t + k * step] for [k]
    from 0 to [trip_count env t - 1], in order. *)
val iter : (string -> int) -> t -> (int -> unit) -> unit
