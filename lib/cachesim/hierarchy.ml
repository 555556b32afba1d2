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

let levels t = Array.to_list t.levels

let access t ?(write = false) addr =
  let n = Array.length t.levels in
  let rec go i =
    if i = n then n
    else if Level.access t.levels.(i) ~write addr then i
    else go (i + 1)
  in
  go 0
