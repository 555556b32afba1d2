module Obs = Mlc_obs.Obs

type tile = { height : int; width : int }

let euclid_chain ~cache_elems ~col_elems =
  let rec go a b acc =
    if b = 0 then List.rev acc else go b (a mod b) (b :: acc)
  in
  let start = col_elems mod cache_elems in
  if start = 0 then [ cache_elems ]
  else go cache_elems start [ cache_elems ]

(* Column d sits at x = d * col mod cache; stop at the first d whose
   circular distance from column 0 is below [height] (or zero). *)
let max_conflict_free_width ~cache_elems ~col_elems ~height ~max_width =
  if height > cache_elems then 0
  else begin
    let step = col_elems mod cache_elems in
    let rec scan d x =
      if d >= max_width then max_width
      else if x = 0 || min x (cache_elems - x) < height then d
      else
        let x = x + step in
        scan (d + 1) (if x >= cache_elems then x - cache_elems else x)
    in
    scan 1 step
  end

let footprint_bytes ~elem t = t.height * t.width * elem

(* [select], [lrw] and [tss] all time under this one span name. *)
let selection f = Obs.with_span ~cat:"tile" "tile_size:select" f

let select ?capacity_bytes ~cache_bytes ~elem ~col_elems ~rows () =
  selection @@ fun () ->
  let capacity = match capacity_bytes with Some c -> c | None -> cache_bytes in
  let cache_elems = cache_bytes / elem in
  let capacity_elems = capacity / elem in
  let candidates =
    euclid_chain ~cache_elems ~col_elems
    |> List.map (fun h -> min h rows)
    |> List.filter (fun h -> h > 0)
    |> List.sort_uniq compare
  in
  (* Score candidates by tiled-matmul misses ~ 1/(2H) + 1/(2W); lower is
     better.  Halve heights as extra candidates — the chain's raw values
     can be too tall to admit any width. *)
  let candidates =
    List.sort_uniq compare
      (candidates @ List.map (fun h -> max 1 (h / 2)) candidates)
  in
  let best = ref { height = 1; width = 1 } in
  let best_score = ref infinity in
  List.iter
    (fun h ->
      let max_w = max 1 (capacity_elems / h) in
      let w =
        max_conflict_free_width ~cache_elems ~col_elems ~height:h
          ~max_width:max_w
      in
      if w >= 1 then begin
        let score = (1.0 /. (2.0 *. float_of_int h)) +. (1.0 /. (2.0 *. float_of_int w)) in
        if score < !best_score then begin
          best_score := score;
          best := { height = h; width = w }
        end
      end)
    candidates;
  !best

let candidates_for ~cache_elems ~col_elems ~rows =
  euclid_chain ~cache_elems ~col_elems
  |> List.concat_map (fun h -> [ h; max 1 (h / 2) ])
  |> List.map (fun h -> min h rows)
  |> List.filter (fun h -> h > 0)
  |> List.sort_uniq compare

let lrw ~cache_bytes ~elem ~col_elems ~rows =
  selection @@ fun () ->
  let cache_elems = cache_bytes / elem in
  let best = ref { height = 1; width = 1 } in
  List.iter
    (fun h ->
      (* square tile: w columns are conflict-free at height h >= w, so
         the w x w square is too *)
      let side =
        max_conflict_free_width ~cache_elems ~col_elems ~height:h ~max_width:h
      in
      if side >= 1 && side * side > !best.height * !best.width then
        best := { height = side; width = side })
    (candidates_for ~cache_elems ~col_elems ~rows);
  !best

let tss ~cache_bytes ~elem ~col_elems ~rows =
  selection @@ fun () ->
  let cache_elems = cache_bytes / elem in
  let best = ref { height = 1; width = 1 } in
  List.iter
    (fun h ->
      let max_w = max 1 (cache_elems / h) in
      let w =
        max_conflict_free_width ~cache_elems ~col_elems ~height:h ~max_width:max_w
      in
      if w >= 1 && h * w > !best.height * !best.width then
        best := { height = h; width = w })
    (candidates_for ~cache_elems ~col_elems ~rows);
  !best

let policy_tiles ~l1 ~l2 ~elem n =
  List.map
    (fun (label, cache_bytes, capacity_bytes) ->
      (label, select ~capacity_bytes ~cache_bytes ~elem ~col_elems:n ~rows:n ()))
    [ ("L1", l1, l1); ("2xL1", l2, 2 * l1); ("4xL1", l2, 4 * l1); ("L2", l2, l2) ]

let no_l2_interference ~s1_elems ~k ~col_elems tile =
  max_conflict_free_width ~cache_elems:(k * s1_elems) ~col_elems
    ~height:tile.height ~max_width:tile.width
  = tile.width
