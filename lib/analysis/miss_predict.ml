open Mlc_ir
module Cs = Mlc_cachesim

(* Widest trip count of each loop, from {!Loop.values} over the enclosing
   loops' values (good enough for cost ranking; triangular bounds use
   their widest extents); a loop without values counts one trip. *)
let trip_counts nest =
  let ranges = Hashtbl.create 8 in
  List.map
    (fun loop ->
      let trip =
        match Loop.values (Hashtbl.find ranges) loop with
        | Loop.Between (lo, hi) ->
            Hashtbl.replace ranges loop.Loop.var (lo, hi);
            ((hi - lo) / abs loop.Loop.step) + 1
        | Loop.Never | Loop.Too_wide | (exception Not_found) -> 1
      in
      (loop.Loop.var, trip))
    nest.Nest.loops

let stride_bytes layout r var = Expr.coeff (Layout.address_expr layout r) var

(* Lines a single reference streams through the nest run in [order]
   (outermost first), with spatial reuse on the innermost loop: 1 line if
   the reference is invariant to it, [trip * stride / line] if it strides
   by less than a line, [trip] otherwise -- times the trips of the outer
   loops.  With [distinct_only], loops the reference is invariant to
   contribute no multiplicity -- that turns traffic into a footprint
   (distinct lines) estimate. *)
let ref_line_traffic ?(distinct_only = false) layout ~line ~order trips r =
  match List.rev order with
  | [] -> 0.0
  | inner :: outers ->
      let trip v = try List.assoc v trips with Not_found -> 1 in
      let stride_of v = abs (stride_bytes layout r v) in
      let stride = stride_of inner in
      let inner_trip = float_of_int (trip inner) in
      let lines =
        if stride = 0 then 1.0
        else if stride < line then inner_trip *. float_of_int stride /. float_of_int line
        else inner_trip
      in
      List.fold_left
        (fun acc v ->
          if distinct_only && stride_of v = 0 then acc
          else acc *. float_of_int (trip v))
        lines outers

(* Summed over one leader per uniformly generated group: group members
   share lines. *)
let leaders_traffic ?distinct_only layout ~line ~order trips groups =
  List.fold_left
    (fun acc g ->
      let leader = (List.hd g.Ref_group.members).Ref_group.ref_ in
      acc +. ref_line_traffic ?distinct_only layout ~line ~order trips leader)
    0.0 groups

let rank_permutations layout ~line nest =
  let trips = trip_counts nest in
  let groups = Ref_group.of_nest layout nest in
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) xs in
            List.map (fun p -> x :: p) (permutations rest))
          xs
  in
  permutations (Nest.vars nest)
  |> List.filter (Dependence.permutation_legal nest)
  |> List.map (fun order -> (order, leaders_traffic layout ~line ~order trips groups))
  |> List.sort (fun (_, a) (_, b) -> compare a b)

let nest_misses layout ~size ~line nest =
  let trips = trip_counts nest in
  let order = Nest.vars nest in
  let groups = Ref_group.of_nest layout nest in
  let footprint = leaders_traffic ~distinct_only:true layout ~line ~order trips groups in
  if footprint *. float_of_int line <= float_of_int size then
    (* everything fits: cold misses only *)
    footprint
  else begin
    (* leaders stream (refetching across invariant outer loops); trailing
       refs whose arcs are lost re-fetch too *)
    let dots = Arcs.dots layout ~size nest in
    let arcs = Arcs.arcs layout nest in
    let lost_trailing_traffic =
      List.fold_left
        (fun acc arc ->
          if Arcs.arc_preserved dots ~size arc then acc
          else
            let trailing_ref =
              List.nth (Nest.refs nest) arc.Arcs.trailing
            in
            acc +. ref_line_traffic layout ~line ~order trips trailing_ref)
        0.0 arcs
    in
    let leaders_traffic = leaders_traffic layout ~line ~order trips groups in
    (* ping-pong conflicts: each severely conflicting pair misses on
       every iteration (two misses per iteration), bounded later *)
    let iterations =
      List.fold_left (fun acc (_, t) -> acc * t) 1 trips |> float_of_int
    in
    let conflicts =
      List.length (Arcs.severe_conflicts layout ~size ~line nest)
    in
    let conflict_misses = 2.0 *. float_of_int conflicts *. iterations in
    let total_refs = float_of_int (Nest.ref_count nest) in
    Float.min total_refs (leaders_traffic +. lost_trailing_traffic +. conflict_misses)
  end

let program_misses layout machine program =
  List.map
    (fun g ->
      let size = g.Cs.Level.size and line = g.Cs.Level.line in
      float_of_int program.Program.time_steps
      *. List.fold_left
           (fun acc nest -> acc +. nest_misses layout ~size ~line nest)
           0.0 program.Program.nests)
    machine.Cs.Machine.geometries
