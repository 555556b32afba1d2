type t = {
  var : string;
  lo : Expr.t;
  lo_max : Expr.t option;
  hi : Expr.t;
  hi_min : Expr.t option;
  step : int;
}

let make ?lo_max ?hi_min ?(step = 1) var ~lo ~hi =
  if step = 0 then invalid_arg "Loop.make: zero step";
  if step < 0 && (lo_max <> None || hi_min <> None) then
    invalid_arg "Loop.make: clamps are not supported on downward loops";
  { var; lo; lo_max; hi; hi_min; step }

let range var lo hi = make var ~lo:(Expr.const lo) ~hi:(Expr.const hi)

(* [e], narrowed by its [clamp] under [pick] *)
let clamped pick env e clamp =
  let x = Expr.eval env e in
  match clamp with None -> x | Some c -> pick x (Expr.eval env c)

let effective_lo env t = clamped max env t.lo t.lo_max

let effective_hi env t = clamped min env t.hi t.hi_min

type values = Between of int * int | Never | Too_wide

let values env t =
  (* a bound's range, narrowed by its clamp *)
  let bound e clamp pick =
    match (Expr.range env e, Option.map (Expr.range env) clamp) with
    | Some r, None -> Some r
    | Some (a, b), Some (Some (c, d)) -> Some (pick a c, pick b d)
    | _ -> None
  in
  match (bound t.lo t.lo_max max, bound t.hi t.hi_min min) with
  | Some (lo, lo'), Some (hi, hi') ->
      (* an upward loop starts at [lo] and ends by [hi], a downward one
         the other way round *)
      let least, greatest = if t.step > 0 then (lo, hi') else (hi, lo') in
      let extent = greatest - least in
      if greatest < least then Never
      else if extent < 0 || extent / abs t.step = max_int then Too_wide
      else Between (least, greatest)
  | _ -> Too_wide

let trip_count env t =
  let lo = effective_lo env t and hi = effective_hi env t in
  let first, last = if t.step > 0 then (lo, hi) else (hi, lo) in
  if last < first then 0 else ((last - first) / abs t.step) + 1

let iter env t f =
  let lo = effective_lo env t in
  for k = 0 to trip_count env t - 1 do
    f (lo + (k * t.step))
  done
