open Mlc_ir
module An = Mlc_analysis

(* At least [k] elements of [xs] satisfy [p]. *)
let rec at_least k p = function
  | _ when k <= 0 -> true
  | [] -> false
  | x :: xs -> at_least (if p x then k - 1 else k) p xs

(* Does some dot of [v] lie within one line (circularly, on a cache of
   [size] bytes) of [assoc] or more dots of the variables in [placed], in
   any nest?  With [assoc = 1] that is any severe conflict; on a k-way
   cache a set only thrashes once more than k references pile onto it. *)
let overloads_set ~size ~line ~assoc program layout v placed =
  List.exists
    (fun nest ->
      let dots = An.Arcs.dots layout ~size nest in
      let of_array p = List.filter (fun d -> p d.An.Arcs.ref_.Ref_.array) dots in
      let du = of_array (fun a -> List.mem a placed) in
      List.exists
        (fun d ->
          at_least assoc
            (fun d' ->
              An.Arcs.circular_distance size d.An.Arcs.position d'.An.Arcs.position
              < line)
            du)
        (of_array (String.equal v)))
    program.Program.nests

let apply ?(assoc = 1) ~size ~line program layout =
  let max_bumps = size / line in
  let layout = ref layout in
  let placed = ref [] in
  List.iter
    (fun v ->
      let bumps = ref 0 in
      while
        !bumps < max_bumps
        && overloads_set ~size ~line ~assoc program !layout v !placed
      do
        layout := Layout.add_pad_before !layout v line;
        incr bumps
      done;
      placed := v :: !placed)
    (Layout.array_names !layout);
  !layout

let remaining_conflicts ~size ~line program layout =
  List.concat
    (List.mapi
       (fun i nest ->
         An.Arcs.severe_conflicts layout ~size ~line nest
         |> List.map (fun c -> (i, c)))
       program.Program.nests)
