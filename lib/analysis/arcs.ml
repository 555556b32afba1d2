open Mlc_ir

type dot = {
  ref_index : int;
  ref_ : Ref_.t;
  address : int;
  position : int;
}

type arc = {
  array : string;
  trailing : int;
  leading : int;
  span : int;
}

type conflict = {
  a : int;
  b : int;
}

(* Environment with every loop variable at its first value
   ({!Loop.effective_lo}); bounds may reference outer variables, so bind
   outermost first. *)
let first_iteration_env nest =
  let bindings = Hashtbl.create 8 in
  let env v =
    match Hashtbl.find_opt bindings v with
    | Some value -> value
    | None -> invalid_arg ("Arcs: unbound loop variable " ^ v)
  in
  List.iter
    (fun l -> Hashtbl.replace bindings l.Loop.var (Loop.effective_lo env l))
    nest.Nest.loops;
  env

let dots layout ~size nest =
  let env = first_iteration_env nest in
  let bases = Layout.bases layout in
  Nest.refs nest
  |> List.mapi (fun i r -> (i, r))
  |> List.filter_map (fun (i, r) ->
         if Ref_.is_affine r then
           let offset = Layout.offset_of_ref layout env r in
           let address = List.assoc r.Ref_.array bases + offset in
           Some { ref_index = i; ref_ = r; address; position = address mod size }
         else None)

let label d = (if Ref_.is_write d.ref_ then "=" else "") ^ Pretty.ref_to_string d.ref_

let arcs layout ?(min_span = 1) nest =
  let groups = Ref_group.of_nest layout nest in
  List.concat_map
    (fun g ->
      let offsets = Ref_group.distinct_offsets g in
      (* One representative member per distinct offset. *)
      let repr o =
        List.find (fun m -> m.Ref_group.offset_bytes = o) g.Ref_group.members
      in
      let rec pair = function
        | lower :: (upper :: _ as rest) ->
            let span = upper - lower in
            let arc =
              {
                array = g.Ref_group.array;
                trailing = (repr lower).Ref_group.index;
                leading = (repr upper).Ref_group.index;
                span;
              }
            in
            if span >= min_span then arc :: pair rest else pair rest
        | _ -> []
      in
      pair offsets)
    groups

let circular_distance size a b =
  let d = (b - a) mod size in
  let d = if d < 0 then d + size else d in
  Int.min d (size - d)

let severe_conflicts layout ~size ~line ?(include_same_array = false) nest =
  let ds = dots layout ~size nest in
  let conflicts = ref [] in
  let rec pairs = function
    | [] -> ()
    | d :: rest ->
        List.iter
          (fun d' ->
            let different_array = d.ref_.Ref_.array <> d'.ref_.Ref_.array in
            (* Same-array pairs conflict only when the two references are
               far apart in memory yet land close on the cache — nearby
               addresses on one line are group-spatial reuse, not a
               conflict (and no amount of column padding would separate
               them). *)
            let same_array_distinct =
              include_same_array
              && d.ref_.Ref_.array = d'.ref_.Ref_.array
              && abs (d.address - d'.address) >= line
            in
            if
              (different_array || same_array_distinct)
              && circular_distance size d.position d'.position < line
            then conflicts := { a = d.ref_index; b = d'.ref_index } :: !conflicts)
          rest;
        pairs rest
  in
  pairs ds;
  List.rev !conflicts

(* [severe_conflicts ~include_same_array:true] restricted to pairs of
   [array]'s own references.  A pair's circular distance depends only on
   the difference of its two addresses, so the array's base drops out and
   its offsets at the first iteration decide. *)
let self_conflict layout ~size ~line array nest =
  match List.filter (fun r -> r.Ref_.array = array && Ref_.is_affine r) (Nest.refs nest) with
  | [] | [ _ ] -> false
  | refs ->
      let env = first_iteration_env nest in
      let offsets = Array.of_list (List.map (Layout.offset_of_ref layout env) refs) in
      let k = Array.length offsets in
      let rec scan i j =
        if i >= k - 1 then false
        else if j >= k then scan (i + 1) (i + 2)
        else
          let delta = offsets.(j) - offsets.(i) in
          (abs delta >= line && circular_distance size 0 delta < line) || scan i (j + 1)
      in
      scan 0 1

let under_arc ~size ~trailing ~span q =
  let rel = (q - trailing) mod size in
  let rel = if rel < 0 then rel + size else rel in
  rel > 0 && rel < span

let arc_preserved ds ~size arc =
  if arc.span >= size then false
  else
    match List.find_opt (fun d -> d.ref_index = arc.trailing) ds with
    | None -> false
    | Some trailing_dot ->
        let trailing = trailing_dot.position in
        not
          (List.exists
             (fun d ->
               if d.ref_index = arc.trailing || d.ref_index = arc.leading then false
               else under_arc ~size ~trailing ~span:arc.span d.position)
             ds)

let preserved_arcs layout ~size nest =
  let ds = dots layout ~size nest in
  arcs layout nest |> List.filter (arc_preserved ds ~size)

let preserved_count layout ~size nest =
  List.length (preserved_arcs layout ~size nest)
