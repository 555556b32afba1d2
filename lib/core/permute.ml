open Mlc_ir
module An = Mlc_analysis

exception Illegal of string

let apply_unchecked nest order =
  let vars = Nest.vars nest in
  if List.sort compare order <> List.sort compare vars then
    raise (Illegal "Permute.apply: order is not a permutation of the nest's loops");
  let loop_of v = List.find (fun l -> l.Loop.var = v) nest.Nest.loops in
  let loops = List.map loop_of order in
  (* A loop bound may only mention variables of loops that remain outside
     it in the new order. *)
  List.iteri
    (fun i loop ->
      let outer = List.filteri (fun j _ -> j < i) order in
      let check e =
        List.iter
          (fun v ->
            if not (List.mem v outer) then
              raise
                (Illegal
                   (Printf.sprintf
                      "Permute.apply: bound of %s references %s which is not outside it"
                      loop.Loop.var v)))
          (Expr.vars e)
      in
      check loop.Loop.lo;
      check loop.Loop.hi;
      (match loop.Loop.lo_max with Some e -> check e | None -> ());
      match loop.Loop.hi_min with Some e -> check e | None -> ())
    loops;
  { nest with Nest.loops }

let apply nest order =
  if not (An.Dependence.permutation_legal nest order) then
    raise (Illegal "Permute.apply: dependences forbid this permutation");
  apply_unchecked nest order

let optimize layout ~line nest =
  match An.Miss_predict.rank_permutations layout ~line nest with
  | (order, _) :: _ when order <> Nest.vars nest -> (
      try apply nest order with Illegal _ -> nest)
  | _ -> nest
