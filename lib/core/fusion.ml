open Mlc_ir
module An = Mlc_analysis

exception Illegal of string

(* Rename the second nest's loop variables positionally to the first's,
   in both subscripts and bounds. *)
let align_names n1 n2 =
  let vars1 = Nest.vars n1 and vars2 = Nest.vars n2 in
  if List.length vars1 <> List.length vars2 then
    raise (Illegal "Fusion: depth mismatch");
  let table = List.combine vars2 vars1 in
  let rename v = try List.assoc v table with Not_found -> v in
  let rename_expr = Expr.rename rename in
  let loops =
    List.map
      (fun l ->
        {
          l with
          Loop.var = rename l.Loop.var;
          lo = rename_expr l.Loop.lo;
          hi = rename_expr l.Loop.hi;
          lo_max = Option.map rename_expr l.Loop.lo_max;
          hi_min = Option.map rename_expr l.Loop.hi_min;
        })
      n2.Nest.loops
  in
  let body =
    List.map (Stmt.map_refs (Ref_.map_exprs rename_expr)) n2.Nest.body
  in
  { Nest.loops; body }

let outer_const_bounds nest =
  match nest.Nest.loops with
  | l :: _ ->
      if Expr.is_const l.Loop.lo && Expr.is_const l.Loop.hi && l.Loop.hi_min = None
         && l.Loop.lo_max = None && l.Loop.step = 1
      then (Expr.const_part l.Loop.lo, Expr.const_part l.Loop.hi)
      else raise (Illegal "Fusion: outer loop must have constant unit-step bounds")
  | [] -> raise (Illegal "Fusion: empty nest")

let fuse ?(shift = 0) n1 n2 =
  if shift < 0 then raise (Illegal "Fusion: negative shift");
  let n2 = align_names n1 n2 in
  if not (An.Dependence.fusion_legal ~shift n1 n2) then
    raise (Illegal "Fusion: dependences forbid fusion at this shift");
  let lo1, hi1 = outer_const_bounds n1 in
  let lo2, hi2 = outer_const_bounds n2 in
  if lo1 <> lo2 || hi1 <> hi2 then
    raise (Illegal "Fusion: outer bounds differ");
  let outer_var = (List.hd n1.Nest.loops).Loop.var in
  (* Body 2, as seen from the fused loop: original iteration k - shift. *)
  let shifted_body2 =
    List.map
      (Stmt.map_refs (Ref_.map_exprs (Expr.shift outer_var (-shift))))
      n2.Nest.body
  in
  let with_outer nest lo hi =
    match nest.Nest.loops with
    | l :: rest ->
        {
          nest with
          Nest.loops =
            { l with Loop.lo = Expr.const lo; hi = Expr.const hi } :: rest;
        }
    | [] -> assert false
  in
  let core_lo = lo1 + shift and core_hi = hi1 in
  if core_lo > core_hi then raise (Illegal "Fusion: shift exceeds loop extent");
  let core =
    with_outer { n1 with Nest.body = n1.Nest.body @ shifted_body2 } core_lo core_hi
  in
  let prologue =
    if shift = 0 then [] else [ with_outer n1 lo1 (lo1 + shift - 1) ]
  in
  let epilogue =
    if shift = 0 then [] else [ with_outer n2 (hi2 - shift + 1) hi2 ]
  in
  prologue @ [ core ] @ epilogue

(* Largest shift fusion tries by default. *)
let max_shift = 4

(* The step both drivers take on nests [i] and [i + 1]: align the second
   to the first, fuse at the smallest legal shift up to [max_shift], and
   splice the fused nests into the program. *)
type step =
  | Mismatch of string
  | No_legal_shift
  | Refused of string
  | Fused of { shift : int; nests : Nest.t list; program : Program.t }

let fuse_step ~max_shift program i =
  let nests = program.Program.nests in
  let n1 = List.nth nests i and n2 = List.nth nests (i + 1) in
  match align_names n1 n2 with
  | exception Illegal m -> Mismatch m
  | n2' -> (
      match An.Dependence.min_legal_shift ~max_shift n1 n2' with
      | None -> No_legal_shift
      | Some shift -> (
          match fuse ~shift n1 n2 with
          | exception Illegal m -> Refused m
          | fused ->
              let before = List.filteri (fun j _ -> j < i) nests in
              let after = List.filteri (fun j _ -> j > i + 1) nests in
              let program = { program with Program.nests = before @ fused @ after } in
              Fused { shift; nests = fused; program }))

let fuse_program ?(max_shift = max_shift) program i =
  if i < 0 || i + 1 >= List.length program.Program.nests then
    raise (Illegal "Fusion.fuse_program: nest index out of range");
  match fuse_step ~max_shift program i with
  | Mismatch m | Refused m -> raise (Illegal m)
  | No_legal_shift -> raise (Illegal "Fusion.fuse_program: no legal shift found")
  | Fused { program; _ } -> program

(* The fused "core" among the nests fuse produced: the one with the
   biggest body (peels restrict the same bodies to few iterations). *)
let core_of nests =
  List.fold_left
    (fun best nest ->
      if List.length (Nest.refs nest) > List.length (Nest.refs best) then nest
      else best)
    (List.hd nests) nests

let optimize_program machine program =
  let module Cs = Mlc_cachesim in
  let l1_size = Cs.Machine.s1 machine in
  let l1_line = Cs.Machine.level_line machine 0 in
  let l2_cost = machine.Cs.Machine.cost.Cs.Cost_model.hit_cycles.(1)
  and memory_cost = machine.Cs.Machine.cost.Cs.Cost_model.memory_cycles in
  let grouppad p = Grouppad.apply ~size:l1_size ~line:l1_line p (Layout.initial p) in
  let log = ref [] in
  let say fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  (* One pass left to right; stay on the same index after a successful
     fusion so chains fuse greedily.  [layout] is [grouppad program],
     computed at most once per program state: an accepted fusion hands on
     the layout its candidate was scored with. *)
  let rec pass program layout i =
    let nests = program.Program.nests in
    if i + 1 >= List.length nests then program
    else
      match fuse_step ~max_shift program i with
      | Mismatch _ ->
          say "nests %d,%d: shape mismatch, skipped" i (i + 1);
          pass program layout (i + 1)
      | No_legal_shift ->
          say "nests %d,%d: no legal shift, skipped" i (i + 1);
          pass program layout (i + 1)
      | Refused m ->
          say "nests %d,%d: %s" i (i + 1) m;
          pass program layout (i + 1)
      | Fused { shift; nests = fused_nests; program = candidate } ->
          let co =
            An.Fusion_model.count (Lazy.force layout) ~l1_size
              [ List.nth nests i; List.nth nests (i + 1) ]
          in
          let candidate_layout = grouppad candidate in
          let cf =
            An.Fusion_model.count candidate_layout ~l1_size [ core_of fused_nests ]
          in
          let cost = An.Fusion_model.miss_cost ~l2_cost ~memory_cost in
          if cost cf < cost co then begin
            say "nests %d,%d: fused (shift %d), model cost %.0f -> %.0f" i (i + 1)
              shift (cost co) (cost cf);
            pass candidate (Lazy.from_val candidate_layout) i
          end
          else begin
            say "nests %d,%d: legal but unprofitable (%.0f -> %.0f)" i (i + 1)
              (cost co) (cost cf);
            pass program layout (i + 1)
          end
  in
  let result = pass program (lazy (grouppad program)) 0 in
  (result, List.rev !log)
