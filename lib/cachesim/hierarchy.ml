type t = { levels : Level.t list }

let create ?write_allocate ?(prefetch_levels = []) geoms =
  if geoms = [] then invalid_arg "Hierarchy.create: no levels";
  {
    levels =
      List.mapi
        (fun i g ->
          Level.create ?write_allocate ~prefetch_next_line:(List.mem i prefetch_levels) g)
        geoms;
  }

let levels t = t.levels

(* The walk down the levels, counting from [i]: a top-level function whose
   tail call compiles to a jump, so an access allocates nothing. *)
let rec walk levels i ~write addr =
  match levels with
  | [] -> i
  | level :: rest ->
      if Level.access level ~write addr then i else walk rest (i + 1) ~write addr

let access t ~write addr = walk t.levels 0 ~write addr
