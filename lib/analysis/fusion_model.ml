open Mlc_ir

type cls = Register | L1_hit | L2_ref | Memory

type counts = {
  register : int;
  l1_hits : int;
  l2_refs : int;
  memory_refs : int;
}

(* Same array, same subscripts — read/write kind does not matter for the
   "second access is a register or trivial hit" rule. *)
let same_location r r' =
  match Ref_.constant_difference r r' with
  | Some ds -> List.for_all (( = ) 0) ds
  | None -> false

let classify_nest layout ~l1_size nest =
  let refs = Nest.refs nest in
  let arcs = Arcs.arcs layout nest in
  let l1_dots = Arcs.dots layout ~size:l1_size nest in
  let arc_of_trailing i = List.find_opt (fun a -> a.Arcs.trailing = i) arcs in
  let classified = ref [] in
  List.iteri
    (fun i r ->
      let cls =
        (* Duplicate of an earlier reference in the same body? *)
        let duplicate =
          List.exists
            (fun (j, r', _) -> j < i && same_location r r')
            !classified
        in
        if duplicate then Register
        else
          match arc_of_trailing i with
          | None -> Memory
          | Some arc ->
              if Arcs.arc_preserved l1_dots ~size:l1_size arc then L1_hit
              else L2_ref (* assume L2MAXPAD preserved it *)
      in
      classified := (i, r, cls) :: !classified)
    refs;
  List.rev !classified

let count layout ~l1_size nests =
  let zero = { register = 0; l1_hits = 0; l2_refs = 0; memory_refs = 0 } in
  List.fold_left
    (fun acc nest ->
      List.fold_left
        (fun acc (_, _, cls) ->
          match cls with
          | Register -> { acc with register = acc.register + 1 }
          | L1_hit -> { acc with l1_hits = acc.l1_hits + 1 }
          | L2_ref -> { acc with l2_refs = acc.l2_refs + 1 }
          | Memory -> { acc with memory_refs = acc.memory_refs + 1 })
        acc
        (classify_nest layout ~l1_size nest))
    zero nests

let miss_cost ~l2_cost ~memory_cost counts =
  (float_of_int counts.l2_refs *. l2_cost)
  +. (float_of_int counts.memory_refs *. memory_cost)

let pp_counts ppf c =
  Format.fprintf ppf "register=%d l1_hits=%d l2_refs=%d memory_refs=%d"
    c.register c.l1_hits c.l2_refs c.memory_refs
