type entry = {
  decl : Array_decl.t;
  pad_before : int;  (* bytes *)
  intra_pad : int;   (* extra elements per column *)
}

type t = { entries : entry list }

(* Address arithmetic that refuses to wrap: a base past [max_int] would
   land on another array. *)
let checked_add a b =
  if b > 0 && a > max_int - b then invalid_arg "Layout: addresses overflow" else a + b

let align_up addr alignment = (checked_add addr (alignment - 1)) / alignment * alignment

let padded_decl_of_entry e =
  match e.decl.Array_decl.dims with
  | d :: rest -> { e.decl with Array_decl.dims = (d + e.intra_pad) :: rest }
  | [] -> assert false

(* Bases accumulate: each array starts after the previous one plus its
   pad, rounded up to its element size so accesses stay aligned.  Returns
   the end of the last array and every base, last first. *)
let fold_bases t =
  List.fold_left
    (fun (cursor, acc) e ->
      let padded = padded_decl_of_entry e in
      let base = align_up (checked_add cursor e.pad_before) e.decl.Array_decl.elem_size in
      let next = checked_add base (Array_decl.size_bytes padded) in
      (next, (e.decl.Array_decl.name, base) :: acc))
    (0, []) t.entries

let bases t = List.rev (snd (fold_bases t))

let total_bytes t = fst (fold_bases t)

let of_arrays arrays =
  let t =
    { entries = List.map (fun decl -> { decl; pad_before = 0; intra_pad = 0 }) arrays }
  in
  ignore (total_bytes t);
  t

let initial program = of_arrays program.Program.arrays

let update t name f =
  let found = ref false in
  let entries =
    List.map
      (fun e ->
        if e.decl.Array_decl.name = name then begin
          found := true;
          f e
        end
        else e)
      t.entries
  in
  if not !found then invalid_arg ("Layout: unknown array " ^ name);
  { entries }

let find t name =
  try List.find (fun e -> e.decl.Array_decl.name = name) t.entries
  with Not_found -> invalid_arg ("Layout: unknown array " ^ name)

let set_pad_before t name bytes =
  if bytes < 0 then invalid_arg "Layout.set_pad_before: negative pad";
  update t name (fun e -> { e with pad_before = bytes })

let add_pad_before t name bytes =
  update t name (fun e -> { e with pad_before = e.pad_before + bytes })

let pad_before t name = (find t name).pad_before

let set_intra_pad t name elems =
  if elems < 0 then invalid_arg "Layout.set_intra_pad: negative pad";
  update t name (fun e -> { e with intra_pad = elems })

let intra_pad t name = (find t name).intra_pad

let base t name =
  try List.assoc name (bases t)
  with Not_found -> invalid_arg ("Layout.base: unknown array " ^ name)

let padded_decl t name = padded_decl_of_entry (find t name)

let array_names t = List.map (fun e -> e.decl.Array_decl.name) t.entries

let address_parts t r =
  let e = find t r.Ref_.array in
  let padded = padded_decl_of_entry e in
  let strides = Array_decl.dim_strides padded in
  let elem = e.decl.Array_decl.elem_size in
  if List.length r.Ref_.subs <> List.length strides then
    invalid_arg ("Layout.address_expr: wrong arity for " ^ r.Ref_.array);
  let affine, gathers =
    List.fold_left2
      (fun (acc, gathers) sub stride ->
        let scale = stride * elem in
        match sub with
        | Subscript.Affine x -> (Expr.add acc (Expr.scale scale x), gathers)
        | Subscript.Gather { table; index } -> (acc, (scale, table, index) :: gathers))
      (Expr.const (base t r.Ref_.array), [])
      r.Ref_.subs strides
  in
  (affine, List.rev gathers)

let address_expr t r =
  match address_parts t r with
  | addr, [] -> addr
  | _ -> invalid_arg "Subscript.expr: gather subscript"

let offset_of_ref t env r =
  let e = find t r.Ref_.array in
  let padded = padded_decl_of_entry e in
  let strides = Array_decl.dim_strides padded in
  let offset =
    List.fold_left2
      (fun acc sub stride -> acc + (Subscript.eval env sub * stride))
      0 r.Ref_.subs strides
  in
  offset * e.decl.Array_decl.elem_size

let address_of_ref t env r =
  let offset = offset_of_ref t env r in
  base t r.Ref_.array + offset

let pp ppf t =
  List.iter
    (fun e ->
      Format.fprintf ppf "%-10s base=%-8d pad_before=%-6d intra_pad=%d@."
        e.decl.Array_decl.name
        (base t e.decl.Array_decl.name)
        e.pad_before e.intra_pad)
    t.entries
