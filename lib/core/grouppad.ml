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

(* The candidates [c] whose shift [c * step] lies in the
   circular window of [width <= size] shifts that starts at [lo]: at most
   two index ranges [\[first, last)]. *)
let window ~size ~step lo width =
  let lo = ((lo mod size) + size) mod size in
  let range a b =
    let first = (a + step - 1) / step and last = (b + step - 1) / step in
    if first < last then [ (first, last) ] else []
  in
  if lo + width <= size then range lo (lo + width)
  else range lo size @ range 0 (lo + width - size)

(* Overlapping or touching ranges merged: their union, sorted. *)
let union ranges =
  let rec merge = function
    | (f1, l1) :: (f2, l2) :: rest when f2 <= l1 -> merge ((f1, max l1 l2) :: rest)
    | r :: rest -> r :: merge rest
    | [] -> []
  in
  merge (List.sort compare ranges)

(* [(conflicts, preserved)] summed over the nests — what [conflict_count]
   and [preserved_references] report — for every candidate at once, when
   candidate [c] moves every array from slot [moved] on by exactly
   [c * step] bytes from [bases0] and no other array.  A pair or arc
   whose dots all lie on one side of [moved] scores the same for every
   candidate: it is scored once, at [bases0].  A straddling pair
   conflicts inside one circular window of [2 * line - 1] shifts, and a
   straddling dot blocks an arc inside one of [span - 1]; each window
   goes into a difference array over the candidates (an arc's windows
   first merged, so that an arc is lost once however many dots block
   it), and one prefix sum gives every candidate's
   [(conflicts, preserved)]. *)
let sweep ~size ~line ~step ~count ~moved models bases0 =
  let conflicts0 = ref 0 and preserved0 = ref 0 in
  let more_conflicts = Array.make (count + 1) 0 and lost = Array.make (count + 1) 0 in
  let add diff (first, last) =
    diff.(first) <- diff.(first) + 1;
    diff.(last) <- diff.(last) - 1
  in
  let window = window ~size ~step in
  List.iter
    (fun m ->
      let n = Array.length m.slot in
      let pos = Array.init n (fun k -> (bases0.(m.slot.(k)) + m.offset.(k)) mod size) in
      let moves k = m.slot.(k) >= moved in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if m.slot.(a) <> m.slot.(b) then
            if moves a = moves b || (2 * line) - 1 >= size then begin
              if An.Arcs.circular_distance size pos.(a) pos.(b) < line then incr conflicts0
            end
            else
              let fixed, moving = if moves a then (pos.(b), pos.(a)) else (pos.(a), pos.(b)) in
              List.iter (add more_conflicts) (window (fixed - moving - line + 1) ((2 * line) - 1))
        done
      done;
      Array.iter
        (fun (t, l, span) ->
          if span < size then begin
            let blocked = ref false and windows = ref [] in
            for k = 0 to n - 1 do
              if k <> t && k <> l then
                if moves k = moves t then begin
                  if An.Arcs.under_arc ~size ~trailing:pos.(t) ~span pos.(k) then blocked := true
                end
                else
                  let lo = if moves t then pos.(k) - pos.(t) - span + 1 else pos.(t) - pos.(k) + 1 in
                  windows := window lo (span - 1) @ !windows
            done;
            if not !blocked then begin
              incr preserved0;
              List.iter (add lost) (union !windows)
            end
          end)
        m.arcs)
    models;
  let conflicts = ref !conflicts0 and lost_now = ref 0 in
  Array.init count (fun c ->
      conflicts := !conflicts + more_conflicts.(c);
      lost_now := !lost_now + lost.(c);
      (!conflicts, !preserved0 - !lost_now))

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

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let apply ~size ~line program layout =
  let names = Layout.array_names layout in
  (* About 128 candidate positions per variable, line-aligned — the
     "limited number of positions" of the original algorithm — on a step
     every element size divides, so that the base alignment moves every
     array from the padded one on by exactly the pad. *)
  let step =
    List.fold_left
      (fun step v ->
        let e = (Layout.padded_decl layout v).Array_decl.elem_size in
        step / gcd step e * e)
      (max line (size / 128 / line * line))
      names
  in
  (* Candidate [c] pads by [c * step] bytes, for every [c * step < size]. *)
  let count = if size <= 0 then 0 else ((size - 1) / step) + 1 in
  match names with
  | [] -> layout
  | _ when count = 0 -> layout
  | names ->
      let models = List.map (nest_model layout ~size) program.Program.nests in
      let bases layout = Layout.bases layout |> List.map snd |> Array.of_list in
      List.fold_left
        (fun layout (slot, v) ->
          let pad c = c * step in
          let scores =
            sweep ~size ~line ~step ~count ~moved:slot models
              (bases (Layout.set_pad_before layout v 0))
          in
          (* Key = (severe conflicts, -preserved arcs, pad); the first
             strict minimum wins, per variable, greedily, like the
             original algorithm.  [runner_up] is the second-best key. *)
          let best = ref None and runner_up = ref None in
          Array.iteri
            (fun c (conflicts, preserved) ->
              let key = (conflicts, -preserved, pad c) in
              match !best with
              | Some best_key when compare key best_key >= 0 -> (
                  match !runner_up with
                  | Some r when compare key r >= 0 -> ()
                  | _ -> runner_up := Some key)
              | _ ->
                  runner_up := !best;
                  best := Some key)
            scores;
          match !best with
          | None -> layout
          | Some ((_, _, pad) as key) ->
              if Obs.enabled () then decision v ~candidates:count key !runner_up;
              Layout.set_pad_before layout v pad)
        layout
        (List.mapi (fun slot v -> (slot, v)) names)
