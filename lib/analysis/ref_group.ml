open Mlc_ir

type member = {
  index : int;
  ref_ : Ref_.t;
  offset_bytes : int;
}

type t = {
  array : string;
  members : member list;
}

(* Linearized byte offset of a reference, ignoring the loop-variable part:
   with uniformly generated references the variable parts are identical,
   so constant parts alone give relative positions. *)
let const_offset layout r =
  let addr = Layout.address_expr layout r in
  Expr.const_part addr

let same_group a b =
  match Ref_.constant_difference a b with Some _ -> true | None -> false

let of_refs layout refs =
  let indexed = List.mapi (fun i r -> (i, r)) refs in
  let affine = List.filter (fun (_, r) -> Ref_.is_affine r) indexed in
  let groups = ref [] in
  List.iter
    (fun (i, r) ->
      let rec place = function
        | [] -> groups := !groups @ [ ref [ (i, r) ] ]
        | g :: rest -> (
            match !g with
            | (_, repr) :: _ when same_group repr r -> g := !g @ [ (i, r) ]
            | _ -> place rest)
      in
      place !groups)
    affine;
  List.map
    (fun g ->
      let members = !g in
      let array = (snd (List.hd members)).Ref_.array in
      let offsets = List.map (fun (i, r) -> (i, r, const_offset layout r)) members in
      let base = List.fold_left (fun acc (_, _, o) -> min acc o) max_int offsets in
      let members =
        offsets
        |> List.map (fun (index, ref_, o) -> { index; ref_; offset_bytes = o - base })
        |> List.sort (fun a b ->
               compare (a.offset_bytes, a.index) (b.offset_bytes, b.index))
      in
      { array; members })
    !groups

let of_nest layout nest = of_refs layout (Nest.refs nest)

let distinct_offsets t =
  List.sort_uniq compare (List.map (fun m -> m.offset_bytes) t.members)
