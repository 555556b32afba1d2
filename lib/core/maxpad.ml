open Mlc_ir

(* Spread variables toward targets k·size/n by choosing, for each variable
   in order, the pad increment from [increments] whose resulting position
   is closest to the target. *)
let spread ~size ~increments layout =
  let names = Layout.array_names layout in
  let n = List.length names in
  if n = 0 then layout
  else
    (* More arrays than cache bytes degenerates to spacing 0 — every
       target collapses onto position 0 and the division of the cache is
       meaningless; clamp so targets still advance. *)
    let spacing = max 1 (size / n) in
    List.fold_left
      (fun (layout, k) v ->
        let target = k * spacing mod size in
        let best = ref None in
        List.iter
          (fun inc ->
            let candidate = Layout.add_pad_before layout v inc in
            let pos = Layout.base candidate v mod size in
            let dist = Mlc_analysis.Arcs.circular_distance size pos target in
            match !best with
            | Some (d, _) when d <= dist -> ()
            | _ -> best := Some (dist, candidate))
          increments;
        let layout = match !best with Some (_, l) -> l | None -> layout in
        (layout, k + 1))
      (layout, 0) names
    |> fst

let apply_l2 ~s1 ~l2_size layout =
  if l2_size mod s1 <> 0 then
    invalid_arg "Maxpad.apply_l2: L2 size not a multiple of S1";
  let increments =
    List.init (l2_size / s1) (fun k -> k * s1)
  in
  spread ~size:l2_size ~increments layout
