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

(* The one search behind [select], [lrw] and [tss], under one span name:
   for each candidate height [h] in order, the widest conflict-free width
   up to [cap h], shaped into a tile by [shape]; the first strict minimum
   of [objective] wins, starting from the 1x1 tile. *)
let search ~cache_bytes ~elem ~col_elems ~heights ~cap ~shape ~objective =
  Obs.with_span ~cat:"tile" "tile_size:select" @@ fun () ->
  let cache_elems = cache_bytes / elem in
  let pick ((_, best_score) as best) h =
    let max_width = cap cache_elems h in
    let w = max_conflict_free_width ~cache_elems ~col_elems ~height:h ~max_width in
    let t = shape h w in
    let score = objective t in
    if w >= 1 && score < best_score then (t, score) else best
  in
  let unit = { height = 1; width = 1 } in
  fst (List.fold_left pick (unit, objective unit) (heights cache_elems))

let tile height width = { height; width }

let negative_area t = -.float_of_int (t.height * t.width)

(* scored by tiled-matmul misses ~ 1/(2H) + 1/(2W); the chain's heights
   are halved as extra candidates, as its raw values can be too tall to
   admit any width *)
let select ?capacity_bytes ~cache_bytes ~elem ~col_elems ~rows () =
  let capacity = match capacity_bytes with Some c -> c | None -> cache_bytes in
  let heights cache_elems =
    let chain = List.map (fun h -> min h rows) (euclid_chain ~cache_elems ~col_elems) in
    let chain = List.filter (fun h -> h > 0) chain in
    List.sort_uniq compare (chain @ List.map (fun h -> max 1 (h / 2)) chain)
  in
  search ~cache_bytes ~elem ~col_elems ~heights ~shape:tile
    ~cap:(fun _ h -> max 1 (capacity / elem / h))
    ~objective:(fun t -> (0.5 /. float_of_int t.height) +. (0.5 /. float_of_int t.width))

let candidates_for ~col_elems ~rows cache_elems =
  euclid_chain ~cache_elems ~col_elems
  |> List.concat_map (fun h -> [ h; max 1 (h / 2) ])
  |> List.map (fun h -> min h rows)
  |> List.filter (fun h -> h > 0)
  |> List.sort_uniq compare

(* w columns are conflict-free at height h >= w, so the w x w square is too *)
let lrw ~cache_bytes ~elem ~col_elems ~rows =
  search ~cache_bytes ~elem ~col_elems ~heights:(candidates_for ~col_elems ~rows)
    ~cap:(fun _ h -> h) ~shape:(fun _ side -> tile side side) ~objective:negative_area

let tss ~cache_bytes ~elem ~col_elems ~rows =
  search ~cache_bytes ~elem ~col_elems ~heights:(candidates_for ~col_elems ~rows)
    ~cap:(fun cache_elems h -> max 1 (cache_elems / h)) ~shape:tile ~objective:negative_area

let policy_tiles ~l1 ~l2 ~elem n =
  List.map
    (fun (label, cache_bytes, capacity_bytes) ->
      (label, select ~capacity_bytes ~cache_bytes ~elem ~col_elems:n ~rows:n ()))
    [ ("L1", l1, l1); ("2xL1", l2, 2 * l1); ("4xL1", l2, 4 * l1); ("L2", l2, l2) ]

let no_l2_interference ~s1_elems ~k ~col_elems tile =
  max_conflict_free_width ~cache_elems:(k * s1_elems) ~col_elems
    ~height:tile.height ~max_width:tile.width
  = tile.width
