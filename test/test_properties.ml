(* Cross-cutting property tests: algebraic laws of the expression
   language, layout invariants, the LRU stack property, fusion-model
   bookkeeping invariants, and end-to-end conservation properties of the
   transformations. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

(* --- Expr laws ------------------------------------------------------------ *)

let gen_expr =
  let open QCheck.Gen in
  let var = oneofl [ "i"; "j"; "k" ] in
  let* terms = list_size (int_range 0 4) (pair (int_range (-9) 9) var) in
  let* const = int_range (-100) 100 in
  return
    (List.fold_left
       (fun acc (c, v) -> Expr.add acc (Expr.term c v))
       (Expr.const const) terms)

let arb_expr = QCheck.make gen_expr

let env v = match v with "i" -> 3 | "j" -> -7 | "k" -> 11 | _ -> 0

let prop_add_homomorphic =
  QCheck.Test.make ~name:"eval (a+b) = eval a + eval b" ~count:300
    (QCheck.pair arb_expr arb_expr)
    (fun (a, b) -> Expr.eval env (Expr.add a b) = Expr.eval env a + Expr.eval env b)

let prop_sub_inverse =
  QCheck.Test.make ~name:"a - a = 0" ~count:300 arb_expr (fun a ->
      let z = Expr.sub a a in
      Expr.is_const z && Expr.const_part z = 0)

let prop_scale_distributes =
  QCheck.Test.make ~name:"k*(a+b) = k*a + k*b" ~count:300
    QCheck.(triple (int_range (-5) 5) arb_expr arb_expr)
    (fun (k, a, b) ->
      Expr.scale k (Expr.add a b) = Expr.add (Expr.scale k a) (Expr.scale k b))

let prop_subst_eval_coherent =
  QCheck.Test.make ~name:"eval after subst = eval with substituted env" ~count:300
    (QCheck.pair arb_expr arb_expr)
    (fun (a, replacement) ->
      let substituted = Expr.subst "i" replacement a in
      let env' v = if v = "i" then Expr.eval env replacement else env v in
      Expr.eval env substituted = Expr.eval env' a)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift v d then shift v (-d) is identity" ~count:300
    (QCheck.pair arb_expr (QCheck.int_range (-20) 20))
    (fun (a, d) -> Expr.shift "j" (-d) (Expr.shift "j" d a) = a)

(* --- Layout invariants ------------------------------------------------------ *)

let gen_arrays =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* dims = list_repeat n (int_range 1 40) in
  return
    (List.mapi
       (fun i d -> Array_decl.make (Printf.sprintf "V%d" i) [ d; (d mod 7) + 1 ])
       dims)

let prop_arrays_never_overlap =
  QCheck.Test.make ~name:"arrays never overlap under random pads" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair gen_arrays (list_size (int_range 0 6) (int_range 0 4096))))
    (fun (arrays, pads) ->
      let layout =
        List.fold_left
          (fun (layout, i) pad ->
            let names = Layout.array_names layout in
            match List.nth_opt names (i mod List.length names) with
            | Some v -> (Layout.add_pad_before layout v pad, i + 1)
            | None -> (layout, i + 1))
          (Layout.of_arrays arrays, 0)
          pads
        |> fst
      in
      let spans =
        List.map
          (fun a ->
            let b = Layout.base layout a.Array_decl.name in
            let padded = Layout.padded_decl layout a.Array_decl.name in
            (b, b + Array_decl.size_bytes padded))
          arrays
        |> List.sort compare
      in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
        | _ -> true
      in
      disjoint spans)

let prop_address_in_bounds =
  QCheck.Test.make ~name:"element addresses stay inside the array span" ~count:200
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 20) (int_range 1 20) (int_range 0 399)))
    (fun (d1, d2, raw) ->
      let a = Array_decl.make "A" [ d1; d2 ] in
      let layout = Layout.of_arrays [ a ] in
      let i = raw mod d1 and j = raw / d1 mod d2 in
      let addr =
        Layout.address_of_ref layout (fun _ -> 0)
          (Ref_.read_a "A" [ Expr.const i; Expr.const j ])
      in
      addr >= Layout.base layout "A"
      && addr + 8 <= Layout.base layout "A" + Array_decl.size_bytes a)

(* --- LRU stack property ------------------------------------------------------ *)

(* With the same set count, every hit in a k-way LRU cache is also a hit
   in a 2k-way LRU cache (inclusion property per set). *)
let prop_lru_stack =
  QCheck.Test.make ~name:"LRU stack property: k-way hits are 2k-way hits" ~count:150
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 8191))
    (fun addrs ->
      let sets = 4 and line = 32 in
      let mk assoc =
        Cs.Level.create { Cs.Level.size = sets * line * assoc; line; assoc }
      in
      let small = mk 2 and big = mk 4 in
      List.for_all
        (fun a ->
          let h1 = Cs.Level.access small a in
          let h2 = Cs.Level.access big a in
          (not h1) || h2)
        addrs)

(* An executable-specification oracle: a set-associative LRU cache as a
   list of per-set MRU-ordered line lists.  The production Level must
   agree with it on every access for random geometries and traces. *)
module Oracle = struct
  type t = {
    line : int;
    sets : int;
    assoc : int;
    contents : int list array;  (* MRU first *)
  }

  let create ~line ~sets ~assoc = { line; sets; assoc; contents = Array.make sets [] }

  let access t addr =
    let l = addr / t.line in
    let s = l mod t.sets in
    let set = t.contents.(s) in
    let hit = List.mem l set in
    let without = List.filter (( <> ) l) set in
    let updated = l :: without in
    let updated =
      if List.length updated > t.assoc then
        List.filteri (fun i _ -> i < t.assoc) updated
      else updated
    in
    t.contents.(s) <- updated;
    hit
end

let prop_level_matches_oracle =
  QCheck.Test.make ~name:"Level agrees with the executable LRU specification"
    ~count:200
    QCheck.(
      triple
        (pair (int_range 0 2) (int_range 0 2)) (* log sets, log assoc *)
        (int_range 0 1)                        (* log line scale *)
        (list_of_size Gen.(int_range 1 300) (int_range 0 4096)))
    (fun ((log_sets, log_assoc), log_line, addrs) ->
      let sets = 1 lsl log_sets and assoc = 1 lsl log_assoc in
      let line = 16 lsl log_line in
      let level =
        Cs.Level.create { Cs.Level.size = sets * assoc * line; line; assoc }
      in
      let oracle = Oracle.create ~line ~sets ~assoc in
      List.for_all
        (fun a -> Cs.Level.access level a = Oracle.access oracle a)
        addrs)

(* --- Fusion model bookkeeping ------------------------------------------------ *)

let prop_fusion_model_totals =
  QCheck.Test.make ~name:"fusion-model classes partition the affine refs" ~count:60
    QCheck.(int_range 50 700)
    (fun n ->
      let p = K.Paper_examples.figure2 n in
      let layout = Layout.initial p in
      let counts =
        An.Fusion_model.count layout ~l1_size:(16 * 1024) p.Program.nests
      in
      let total_refs =
        List.fold_left
          (fun acc nest ->
            acc
            + List.length (List.filter Ref_.is_affine (Nest.refs nest)))
          0 p.Program.nests
      in
      counts.An.Fusion_model.register + counts.An.Fusion_model.l1_hits
      + counts.An.Fusion_model.l2_refs + counts.An.Fusion_model.memory_refs
      = total_refs)

let prop_l2maxpad_keeps_l1_residues =
  QCheck.Test.make ~name:"L2MAXPAD keeps every base's residue mod S1" ~count:30
    QCheck.(int_range 100 600)
    (fun n ->
      let p = K.Livermore.jacobi n in
      let s1 = 16 * 1024 and l2_size = 512 * 1024 in
      let gp = L.Grouppad.apply ~size:s1 ~line:32 p (Layout.initial p) in
      let l2 = L.Maxpad.apply_l2 ~s1 ~l2_size p gp in
      List.for_all
        (fun v -> Layout.base gp v mod s1 = Layout.base l2 v mod s1)
        (Layout.array_names gp))

(* --- Transformation conservation --------------------------------------------- *)

let prop_fusion_preserves_multiset =
  QCheck.Test.make ~name:"fusion preserves the access multiset" ~count:40
    QCheck.(pair (int_range 8 40) (int_range 0 2))
    (fun (n, shift) ->
      let open Build in
      let wa = arr "W" [ n; n ] and x = arr "X" [ n; n ] and y = arr "Y" [ n; n ] in
      let i = v "i" and j = v "j" in
      let hi = n - 3 in
      QCheck.assume (1 + shift <= hi);
      let n1 =
        nest [ loop "j" 1 hi; loop "i" 0 (n - 1) ]
          [ asn (w "W" [ i; j ]) [ r "X" [ i; j ] ] ]
      in
      let n2 =
        nest [ loop "j" 1 hi; loop "i" 0 (n - 1) ]
          [ asn (w "Y" [ i; j ]) [ r "W" [ i; j ] ] ]
      in
      let p = Program.make "fp" [ wa; x; y ] [ n1; n2 ] in
      let layout = Layout.initial p in
      match L.Fusion.fuse ~shift n1 n2 with
      | parts ->
          let p' = { p with Program.nests = parts } in
          Trace_oracle.sorted_trace layout p = Trace_oracle.sorted_trace layout p'
      | exception L.Fusion.Illegal _ -> QCheck.assume_fail ())

let prop_pad_never_creates_conflicts =
  QCheck.Test.make ~name:"PAD output has no severe conflicts (random sizes)"
    ~count:25
    QCheck.(int_range 64 600)
    (fun n ->
      let p = K.Livermore.jacobi n in
      let layout = L.Pad.apply ~size:(16 * 1024) ~line:32 p (Layout.initial p) in
      L.Pad.remaining_conflicts ~size:(16 * 1024) ~line:32 p layout = [])

let prop_interp_refs_match_static_count =
  QCheck.Test.make ~name:"simulated refs = static ref count" ~count:25
    QCheck.(int_range 16 128)
    (fun n ->
      let p = K.Livermore.expl n in
      let r = Interp.run Cs.Machine.ultrasparc (Layout.initial p) p in
      r.Interp.total_refs = Program.ref_count p)

let () =
  Alcotest.run "properties"
    [
      ( "expr",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_homomorphic;
            prop_sub_inverse;
            prop_scale_distributes;
            prop_subst_eval_coherent;
            prop_shift_roundtrip;
          ] );
      ( "layout",
        List.map QCheck_alcotest.to_alcotest
          [ prop_arrays_never_overlap; prop_address_in_bounds ] );
      ( "cache",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lru_stack; prop_level_matches_oracle ] );
      ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fusion_model_totals; prop_l2maxpad_keeps_l1_residues ] );
      ( "transforms",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fusion_preserves_multiset;
            prop_pad_never_creates_conflicts;
            prop_interp_refs_match_static_count;
          ] );
    ]
