type t = {
  loops : Loop.t list;
  body : Stmt.t list;
}

let make loops body =
  if loops = [] then invalid_arg "Nest.make: no loops";
  { loops; body }

let depth t = List.length t.loops

let innermost t =
  match List.rev t.loops with
  | l :: _ -> l
  | [] -> invalid_arg "Nest.innermost: empty nest"

let refs t = List.concat_map (fun s -> s.Stmt.refs) t.body

let vars t = List.map (fun l -> l.Loop.var) t.loops

let map_refs f t = { t with body = List.map (Stmt.map_refs f) t.body }

let iterations t =
  (* Walk the loop structure, counting trips; bounds may reference outer
     loop variables, so we carry an environment. *)
  let count = ref 0 in
  let rec go env = function
    | [] -> incr count
    | loop :: rest ->
        Loop.iter env loop (fun iv ->
            let env' v = if v = loop.Loop.var then iv else env v in
            go env' rest)
  in
  go (fun v -> raise (Invalid_argument ("Nest.iterations: unbound " ^ v))) t.loops;
  !count

let ref_count t =
  iterations t * List.fold_left (fun acc s -> acc + List.length s.Stmt.refs) 0 t.body
