type t = { levels : Level.t array }

let create ?write_allocate ?(prefetch_levels = []) geoms =
  if geoms = [] then invalid_arg "Hierarchy.create: no levels";
  {
    levels =
      Array.of_list
        (List.mapi
           (fun i g ->
             Level.create ?write_allocate
               ~prefetch_next_line:(List.mem i prefetch_levels)
               g)
           geoms);
  }

let ultrasparc () =
  create
    [
      { Level.size = 16 * 1024; line = 32; assoc = 1 };
      { Level.size = 512 * 1024; line = 64; assoc = 1 };
    ]

let levels t = Array.to_list t.levels

let n_levels t = Array.length t.levels

let access t ?(write = false) addr =
  let n = Array.length t.levels in
  let rec go i =
    if i = n then n
    else if Level.access t.levels.(i) ~write addr then i
    else go (i + 1)
  in
  go 0

let total_refs t = (Level.stats t.levels.(0)).Stats.accesses

let miss_rates t =
  let total = total_refs t in
  Array.to_list t.levels
  |> List.map (fun level -> Stats.miss_rate_vs ~total_refs:total (Level.stats level))
