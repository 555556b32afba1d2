open Mlc_ir

let same_location r r' =
  match Ref_.constant_difference r r' with
  | Some ds -> List.for_all (( = ) 0) ds
  | None -> false

let apply ?(max_distance = 2) nest =
  let inner_loop = Nest.innermost nest in
  let inner = inner_loop.Loop.var in
  (* on a downward loop, "k iterations earlier" means a larger value *)
  let dir = if inner_loop.Loop.step > 0 then 1 else -1 in
  let all_refs = Nest.refs nest in
  let replaced_by_rotation r =
    (* r's location was touched k in [1, max_distance] innermost
       iterations earlier by some reference r' iff shifting r by +k in
       the innermost variable makes it equal to r'. *)
    List.exists
      (fun r' ->
        (not (same_location r r'))
        &&
        let rec try_k k =
          if k > max_distance then false
          else
            let shifted = Ref_.map_exprs (Expr.shift inner (k * dir)) r in
            same_location shifted r' || try_k (k + 1)
        in
        try_k 1)
      all_refs
  in
  let body =
    List.fold_left
      (fun (seen, acc) stmt ->
        let refs, seen =
          List.fold_left
            (fun (refs, seen) r ->
              let is_read = not (Ref_.is_write r) in
              let dup = List.exists (same_location r) seen in
              let rotated = is_read && Ref_.is_affine r && replaced_by_rotation r in
              if is_read && Ref_.is_affine r && (dup || rotated) then (refs, seen)
              else (r :: refs, r :: seen))
            ([], seen) stmt.Stmt.refs
        in
        (seen, { stmt with Stmt.refs = List.rev refs } :: acc))
      ([], []) nest.Nest.body
    |> snd |> List.rev
  in
  { nest with Nest.body }

let apply_program program = Program.map_nests (fun nest -> apply nest) program
