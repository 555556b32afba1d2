type t = {
  name : string;
  dims : int list;
  elem_size : int;
}

let make ?(elem_size = 8) name dims =
  if dims = [] then invalid_arg "Array_decl.make: no dimensions";
  List.iter (fun d -> if d <= 0 then invalid_arg "Array_decl.make: dim <= 0") dims;
  if elem_size <= 0 then invalid_arg "Array_decl.make: elem_size <= 0";
  { name; dims; elem_size }

let elements t = List.fold_left ( * ) 1 t.dims

let size_bytes t = elements t * t.elem_size

let column_bytes t =
  match t.dims with
  | d :: _ -> d * t.elem_size
  | [] -> assert false

let dim_strides t =
  let rec go stride = function
    | [] -> []
    | d :: rest -> stride :: go (stride * d) rest
  in
  go 1 t.dims
