open Mlc_ir
module An = Mlc_analysis

exception Illegal of string

(* Tiling legality: strip-mining is always legal, and hoisting the strip
   loops outermost is legal when the band of loops from the outermost
   tiled loop inward is fully permutable (Irigoin & Triolet; Wolf & Lam).
   We check full permutability on the ORIGINAL nest — after strip-mining,
   strip variables vanish from subscripts and the dependence model can no
   longer see that the blocked traversal stays forward. *)
let check_fully_permutable nest tiled_vars =
  let vars = Nest.vars nest in
  List.iter
    (fun v ->
      if not (List.mem v vars) then raise (Illegal ("Tiling.tile: no loop " ^ v)))
    tiled_vars;
  (* The strip loops are hoisted to the very front, crossing every outer
     loop, so we require the whole nest to be fully permutable. *)
  let rec permutations = function
    | [] -> [ [] ]
    | xs ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) xs in
            List.map (fun p -> x :: p) (permutations rest))
          xs
  in
  let all_legal =
    List.for_all
      (fun perm -> An.Dependence.permutation_legal nest perm)
      (permutations vars)
  in
  if not all_legal then
    raise (Illegal "Tiling.tile: loop nest is not fully permutable")

(* [spec] = [(var, width, strip_name); ...], applied outside-in; all
   strip loops end up outermost, in the order given. *)
let tile nest spec =
  check_fully_permutable nest (List.map (fun (v, _, _) -> v) spec);
  (* Strip-mine each requested loop, then hoist strip loops to the front
     in spec order. *)
  let nest =
    List.fold_left
      (fun nest (var, width, strip_var) ->
        try Strip_mine.apply nest ~var ~width ~strip_var
        with Strip_mine.Illegal m -> raise (Illegal m))
      nest spec
  in
  let strip_vars = List.map (fun (_, _, s) -> s) spec in
  let element_vars =
    List.filter (fun v -> not (List.mem v strip_vars)) (Nest.vars nest)
  in
  try Permute.apply_unchecked nest (strip_vars @ element_vars)
  with Permute.Illegal m -> raise (Illegal m)

let matmul n =
  let open Build in
  let a = arr "A" [ n; n ] and b = arr "B" [ n; n ] and cm = arr "C" [ n; n ] in
  let i = v "I" and j = v "J" and k = v "K" in
  program
    (Printf.sprintf "matmul-%d" n)
    [ a; b; cm ]
    [
      nest
        [ loop "J" 0 (n - 1); loop "K" 0 (n - 1); loop "I" 0 (n - 1) ]
        [ asn ~flops:2 (w "C" [ i; j ]) [ r "C" [ i; j ]; r "A" [ i; k ]; r "B" [ k; j ] ] ];
    ]

let tiled_matmul ~n ~h ~w =
  let p = matmul n in
  match p.Program.nests with
  | [ nest ] ->
      let tiled = tile nest [ ("K", w, "KK"); ("I", h, "II") ] in
      (* Figure 8 order: KK, II, J, K, I. *)
      (* tile already verified full permutability of the original nest *)
      let tiled =
        try Permute.apply_unchecked tiled [ "KK"; "II"; "J"; "K"; "I" ]
        with Permute.Illegal m -> raise (Illegal m)
      in
      {
        p with
        Program.name = Printf.sprintf "matmul-%d-tiled-%dx%d" n h w;
        nests = [ tiled ];
      }
  | _ -> assert false
