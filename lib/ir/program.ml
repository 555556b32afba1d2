type t = {
  name : string;
  arrays : Array_decl.t list;
  nests : Nest.t list;
  time_steps : int;
}

let make ?(time_steps = 1) name arrays nests =
  if time_steps < 1 then invalid_arg "Program.make: time_steps < 1";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if Hashtbl.mem seen a.Array_decl.name then
        invalid_arg ("Program.make: duplicate array " ^ a.Array_decl.name);
      Hashtbl.add seen a.Array_decl.name ())
    arrays;
  { name; arrays; nests; time_steps }

let find_array t name =
  try List.find (fun a -> a.Array_decl.name = name) t.arrays
  with Not_found ->
    invalid_arg (Printf.sprintf "Program.find_array: %s not declared in %s" name t.name)

let array_names t = List.map (fun a -> a.Array_decl.name) t.arrays

let ref_count t =
  t.time_steps * List.fold_left (fun acc n -> acc + Nest.ref_count n) 0 t.nests

let flop_count t =
  let per_nest n =
    Nest.iterations n
    * List.fold_left (fun acc s -> acc + s.Stmt.flops) 0 n.Nest.body
  in
  t.time_steps * List.fold_left (fun acc n -> acc + per_nest n) 0 t.nests

let map_nests f t = { t with nests = List.map f t.nests }

let set_nest t i nest =
  { t with nests = List.mapi (fun j n -> if i = j then nest else n) t.nests }
