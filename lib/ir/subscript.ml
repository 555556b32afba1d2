type t =
  | Affine of Expr.t
  | Gather of { table : int array; index : Expr.t }

let affine e = Affine e

let gather ~table ~index = Gather { table; index }

let is_affine = function Affine _ -> true | Gather _ -> false

let outside_table table i =
  invalid_arg
    (Printf.sprintf "Subscript.eval: gather index %d outside table of %d" i
       (Array.length table))

let lookup table i =
  if i < 0 || i >= Array.length table then outside_table table i
  else Array.unsafe_get table i

let eval env = function
  | Affine e -> Expr.eval env e
  | Gather { table; index } -> lookup table (Expr.eval env index)

let expr = function
  | Affine e -> e
  | Gather _ -> invalid_arg "Subscript.expr: gather subscript"

let map_expr f = function
  | Affine e -> Affine (f e)
  | Gather { table; index } -> Gather { table; index = f index }
