type kind = Read | Write

type t = {
  array : string;
  subs : Subscript.t list;
  kind : kind;
}

let read array subs = { array; subs; kind = Read }

let write array subs = { array; subs; kind = Write }

let read_a array exprs = read array (List.map Subscript.affine exprs)

let write_a array exprs = write array (List.map Subscript.affine exprs)

let is_write t = t.kind = Write

let is_affine t = List.for_all Subscript.is_affine t.subs

let map_exprs f t = { t with subs = List.map (Subscript.map_expr f) t.subs }

let constant_difference a b =
  if a.array <> b.array || List.length a.subs <> List.length b.subs then None
  else
    let diff_dim sa sb =
      match (sa, sb) with
      | Subscript.Affine ea, Subscript.Affine eb ->
          let d = Expr.sub ea eb in
          if Expr.is_const d then Some (Expr.const_part d) else None
      | _, _ -> None
    in
    let rec go = function
      | [], [] -> Some []
      | sa :: ta, sb :: tb -> (
          match diff_dim sa sb with
          | None -> None
          | Some d -> ( match go (ta, tb) with None -> None | Some ds -> Some (d :: ds)))
      | _ -> None
    in
    go (a.subs, b.subs)
