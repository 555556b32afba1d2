open Mlc_ir
module An = Mlc_analysis
module Obs = Mlc_obs.Obs

let preserved_references ~size program layout =
  List.fold_left
    (fun acc nest -> acc + An.Arcs.preserved_count layout ~size nest)
    0 program.Program.nests

let conflict_count ~size ~line program layout =
  List.fold_left
    (fun acc nest ->
      acc + List.length (An.Arcs.severe_conflicts layout ~size ~line nest))
    0 program.Program.nests

(* One nest with everything that no inter-variable pad moves taken out of
   the score: each dot (affine reference, in body order) as the slot of
   its array in the layout and its first-iteration byte offset from that
   array's base, and each group-reuse arc as (trailing dot, leading dot,
   span) — arcs depend on intra-variable pads only. *)
type nest_model = {
  slot : int array;
  offset : int array;
  arcs : (int * int * int) array;
}

let index_of eq xs x =
  let rec go i = function
    | [] -> invalid_arg "Grouppad: element not found"
    | y :: rest -> if eq y x then i else go (i + 1) rest
  in
  go 0 xs

let nest_model layout ~size nest =
  let bases = Layout.bases layout in
  let names = List.map fst bases in
  let dots = An.Arcs.dots layout ~size nest in
  let dot_of ref_index =
    index_of (fun d i -> d.An.Arcs.ref_index = i) dots ref_index
  in
  let array d = d.An.Arcs.ref_.Ref_.array in
  {
    slot = Array.of_list (List.map (fun d -> index_of String.equal names (array d)) dots);
    offset =
      Array.of_list
        (List.map (fun d -> d.An.Arcs.address - List.assoc (array d) bases) dots);
    arcs =
      Array.of_list
        (List.map
           (fun a -> An.Arcs.(dot_of a.trailing, dot_of a.leading, a.span))
           (An.Arcs.arcs layout nest));
  }

(* [(conflicts, preserved)] summed over the nests for one vector of array
   bases: what [conflict_count] and [preserved_references] report for the
   layout with those bases. *)
let score ~size ~line models bases =
  let conflicts = ref 0 and preserved = ref 0 in
  List.iter
    (fun m ->
      let n = Array.length m.slot in
      let pos = Array.init n (fun k -> (bases.(m.slot.(k)) + m.offset.(k)) mod size) in
      for a = 0 to n - 1 do
        let slot = m.slot.(a) and p = pos.(a) in
        for b = a + 1 to n - 1 do
          if m.slot.(b) <> slot && An.Arcs.circular_distance size p pos.(b) < line
          then incr conflicts
        done
      done;
      Array.iter
        (fun (t, l, span) ->
          if span < size then begin
            let trailing = pos.(t) in
            let rec clear k =
              k = n
              || ((k = t || k = l || not (An.Arcs.under_arc ~size ~trailing ~span pos.(k)))
                 && clear (k + 1))
            in
            if clear 0 then incr preserved
          end)
        m.arcs)
    models;
  (!conflicts, !preserved)

(* The decision instant: the winning key and the runner-up's, both as
   [(conflicts, -preserved, pad)]. *)
let decision v ~candidates best runner_up =
  let key prefix (conflicts, neg_preserved, pad) =
    [
      (prefix ^ "pad", `Int pad);
      (prefix ^ "conflicts", `Int conflicts);
      (prefix ^ "preserved", `Int (-neg_preserved));
    ]
  in
  Obs.instant ~cat:"decision"
    ~args:
      ([ ("pass", `Str "grouppad"); ("array", `Str v); ("candidates", `Int candidates) ]
      @ key "" best
      @ match runner_up with Some r -> key "runner_up_" r | None -> [])
    ("grouppad:score " ^ v)

let apply ?candidate_step ~size ~line program layout =
  (* Default: ~128 candidate positions per variable, line-aligned — the
     "limited number of positions" of the original algorithm. *)
  let step =
    match candidate_step with
    | Some s -> max line s
    | None -> max line (size / 128 / line * line)
  in
  let candidates =
    let rec go p acc = if p >= size then List.rev acc else go (p + step) (p :: acc) in
    go 0 []
  in
  match (Layout.array_names layout, candidates) with
  | [], _ | _, [] -> layout
  | names, _ ->
      let models = List.map (nest_model layout ~size) program.Program.nests in
      List.fold_left
        (fun layout v ->
          (* Key = (severe conflicts, -preserved arcs, pad); the first
             strict minimum wins, per variable, greedily, like the
             original algorithm.  [runner_up] is the second-best key. *)
          let best = ref None and runner_up = ref None in
          List.iter
            (fun pad ->
              let bases =
                Layout.set_pad_before layout v pad
                |> Layout.bases |> List.map snd |> Array.of_list
              in
              let conflicts, preserved = score ~size ~line models bases in
              let key = (conflicts, -preserved, pad) in
              match !best with
              | Some best_key when compare key best_key >= 0 -> (
                  match !runner_up with
                  | Some r when compare key r >= 0 -> ()
                  | _ -> runner_up := Some key)
              | _ ->
                  runner_up := !best;
                  best := Some key)
            candidates;
          match !best with
          | None -> layout
          | Some ((_, _, pad) as key) ->
              if Obs.enabled () then
                decision v ~candidates:(List.length candidates) key !runner_up;
              Layout.set_pad_before layout v pad)
        layout names
