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

let effective_lo env t =
  let lo = Expr.eval env t.lo in
  match t.lo_max with
  | None -> lo
  | Some clamp -> max lo (Expr.eval env clamp)

let effective_hi env t =
  let hi = Expr.eval env t.hi in
  match t.hi_min with
  | None -> hi
  | Some clamp -> min hi (Expr.eval env clamp)

let trip_count env t =
  let lo = effective_lo env t in
  let hi = effective_hi env t in
  if t.step > 0 then
    if hi < lo then 0 else ((hi - lo) / t.step) + 1
  else if lo < hi then 0
  else ((lo - hi) / -t.step) + 1

let iter env t f =
  let lo = effective_lo env t in
  for k = 0 to trip_count env t - 1 do
    f (lo + (k * t.step))
  done
