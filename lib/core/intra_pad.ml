open Mlc_ir
module An = Mlc_analysis

let apply ~size ~line program layout =
  let max_elems = (line / 4) + 1 (* a few elements; enough to slide a line *) in
  List.fold_left
    (fun layout v ->
      let nests =
        List.filter
          (fun nest -> List.exists (fun r -> r.Ref_.array = v) (Nest.refs nest))
          program.Program.nests
      in
      let conflicts layout = List.exists (An.Arcs.self_conflict layout ~size ~line v) nests in
      let rec go layout n =
        if n >= max_elems || not (conflicts layout) then layout
        else go (Layout.set_intra_pad layout v (Layout.intra_pad layout v + 1)) (n + 1)
      in
      go layout 0)
    layout (Layout.array_names layout)

let remaining_self_conflicts ~size ~line program layout =
  List.concat
    (List.mapi
       (fun i nest ->
         let refs = Array.of_list (Nest.refs nest) in
         An.Arcs.severe_conflicts layout ~size ~line ~include_same_array:true nest
         |> List.filter (fun c ->
                refs.(c.An.Arcs.a).Ref_.array = refs.(c.An.Arcs.b).Ref_.array)
         |> List.map (fun c -> (i, c)))
       program.Program.nests)
