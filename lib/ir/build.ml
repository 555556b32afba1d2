let arr ?elem_size name dims = Array_decl.make ?elem_size name dims

let v = Expr.var

let c = Expr.const

let ( +! ) e k = Expr.add e (Expr.const k)

let ( -! ) e k = Expr.sub e (Expr.const k)

let ( ** ) e k = Expr.scale k e

let r name exprs = Ref_.read_a name exprs

let w name exprs = Ref_.write_a name exprs

let rg name table index = Ref_.read name [ Subscript.gather ~table ~index ]

let wg name table index = Ref_.write name [ Subscript.gather ~table ~index ]

let asn ?flops lhs rhs =
  let flops = match flops with Some f -> f | None -> max 0 (List.length rhs - 1) in
  Stmt.assign ~flops lhs rhs

let loop var lo hi = Loop.range var lo hi

let loop_e var lo hi = Loop.make var ~lo ~hi

let nest loops body = Nest.make loops body

let program ?time_steps name arrays nests = Program.make ?time_steps name arrays nests
