(* Tests for group analysis, the arc (layout-diagram) model, dependences,
   the Section 4 fusion accounting — including the paper's own worked
   numbers — and the loop cost that ranks permutations. *)

open Mlc_ir
module An = Mlc_analysis
module K = Mlc_kernels

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* A fixture mirroring Figure 2 under the paper's diagram geometry: the
   cache is "slightly more than double the common column size", and array
   sizes are multiples of the L1 cache size so all base addresses
   coincide.  N = 960: column 7680B vs a 16K L1 (2.13 columns), and
   960²·8 = 450·16384. *)
let n_fig = 960

let fig2 = K.Paper_examples.figure2 n_fig

let fig6 = K.Paper_examples.figure6_fused n_fig

let l1_size = 16 * 1024

let l1_line = 32

let _l2_size = 512 * 1024

(* --- Ref_group ---------------------------------------------------------- *)

let test_groups_fig2 () =
  let layout = Layout.initial fig2 in
  let nest1 = List.hd fig2.Program.nests in
  let groups = An.Ref_group.of_nest layout nest1 in
  check_int "three groups (A,B,C)" 3 (List.length groups);
  List.iter
    (fun g ->
      check_int ("two members in " ^ g.An.Ref_group.array) 2
        (List.length g.An.Ref_group.members);
      Alcotest.(check (list int))
        "offsets are 0 and one column"
        [ 0; n_fig * 8 ]
        (An.Ref_group.distinct_offsets g))
    groups

let test_group_not_uniform () =
  let layout = Layout.initial fig2 in
  let refs =
    [
      Ref_.read_a "A" [ Expr.var "i"; Expr.var "j" ];
      Ref_.read_a "A" [ Expr.var "j"; Expr.var "i" ];
    ]
  in
  let groups = An.Ref_group.of_refs layout refs in
  check_int "transposed refs split" 2 (List.length groups)

(* --- Arcs: severe conflicts and the Figure 3/4 story -------------------- *)

let test_packed_layout_conflicts () =
  (* With arrays multiples of the cache size, all bases coincide on the
     cache: severe conflicts between different arrays. *)
  let layout = Layout.initial fig2 in
  let nest1 = List.hd fig2.Program.nests in
  let conflicts =
    An.Arcs.severe_conflicts layout ~size:l1_size ~line:l1_line nest1
  in
  check_bool "severe conflicts exist" true (conflicts <> [])

let test_arcs_of_fig2 () =
  let layout = Layout.initial fig2 in
  check_int "nest1 has 3 arcs" 3
    (List.length (An.Arcs.arcs layout (List.nth fig2.Program.nests 0)));
  (* nest 2: B has offsets 0,N,2N -> 2 arcs; C single ref -> none *)
  check_int "nest2 has 2 arcs" 2
    (List.length (An.Arcs.arcs layout (List.nth fig2.Program.nests 1)));
  (* five arcs total, as in Figure 3's five arcs *)
  check_int "fused nest has 4 arcs" 4
    (List.length (An.Arcs.arcs layout (List.hd fig6.Program.nests)))

let test_arc_preservation_geometry () =
  (* Hand-built dots: arc of span 100 on a 1000-byte cache. *)
  let mk i pos = { An.Arcs.ref_index = i; ref_ = Ref_.read_a "X" []; address = pos; position = pos } in
  let arc = { An.Arcs.array = "X"; trailing = 0; leading = 1; span = 100 } in
  let dots_clear = [ mk 0 200; mk 1 300; mk 2 500 ] in
  check_bool "no dot under arc" true (An.Arcs.arc_preserved dots_clear ~size:1000 arc);
  let dots_blocked = [ mk 0 200; mk 1 300; mk 2 250 ] in
  check_bool "dot under arc kills" false
    (An.Arcs.arc_preserved dots_blocked ~size:1000 arc);
  (* wrap-around interval *)
  let arc_wrap = { An.Arcs.array = "X"; trailing = 0; leading = 1; span = 150 } in
  let dots_wrap = [ mk 0 950; mk 1 100; mk 2 20 ] in
  check_bool "wrapped interval checked" false
    (An.Arcs.arc_preserved dots_wrap ~size:1000 arc_wrap);
  (* span >= cache never preserved *)
  let arc_big = { An.Arcs.array = "X"; trailing = 0; leading = 1; span = 1000 } in
  check_bool "span >= size impossible" false
    (An.Arcs.arc_preserved dots_clear ~size:1000 arc_big)

(* Figure 4: GROUPPAD preserves only B's reuse in nest 1 when the cache
   fits two columns plus change but not three; the paper notes the L1
   "lacks the capacity to preserve all group reuse in the first loop (as
   this would require a cache size three times the column size)". *)
let test_capacity_argument () =
  (* three arcs of span = column; cache = 2.5 columns: at most 2 arcs can
     be simultaneously preserved *)
  let col = 4096 in
  let size = col * 5 / 2 in
  let mk i pos = { An.Arcs.ref_index = i; ref_ = Ref_.read_a "X" []; address = pos; position = pos mod size } in
  let arcs =
    [
      { An.Arcs.array = "A"; trailing = 0; leading = 1; span = col };
      { An.Arcs.array = "B"; trailing = 2; leading = 3; span = col };
      { An.Arcs.array = "C"; trailing = 4; leading = 5; span = col };
    ]
  in
  (* try to spread three arcs: trailing positions 0, col, 2*col *)
  let dots =
    [ mk 0 0; mk 1 col; mk 2 col; mk 3 (2 * col); mk 4 (2 * col); mk 5 (3 * col) ]
  in
  let preserved =
    List.length (List.filter (An.Arcs.arc_preserved dots ~size) arcs)
  in
  check_bool "at most two of three arcs fit" true (preserved <= 2)

(* --- Dependence --------------------------------------------------------- *)

let test_dependence_distance () =
  let r1 = Ref_.read_a "A" [ Expr.var "i"; Expr.var "j" ] in
  let r2 = Ref_.write_a "A" [ Expr.var "i"; Expr.add (Expr.var "j") (Expr.const 1) ] in
  (match An.Dependence.between r1 r2 with
  | An.Dependence.Distance ds ->
      check_int "distance j" (-1) (List.assoc "j" ds)
  | _ -> Alcotest.fail "expected distance");
  let r3 = Ref_.read_a "A" [ Expr.const 0; Expr.var "j" ] in
  let r4 = Ref_.read_a "A" [ Expr.const 1; Expr.var "j" ] in
  (match An.Dependence.between r3 r4 with
  | An.Dependence.Independent -> ()
  | _ -> Alcotest.fail "expected independent");
  let r5 = Ref_.read_a "B" [ Expr.var "i" ] in
  (match An.Dependence.between r1 r5 with
  | An.Dependence.Independent -> ()
  | _ -> Alcotest.fail "different arrays independent")

let stencil_nests n =
  (* nest1 writes W(i,j); nest2 reads W(i,j-1): flow dep distance +1 on j *)
  let open Build in
  let wa = arr "W" [ n; n ] and x = arr "X" [ n; n ] in
  let i = v "i" and j = v "j" in
  let n1 =
    nest [ loop "j" 1 (n - 2); loop "i" 0 (n - 1) ]
      [ asn (w "W" [ i; j ]) [ r "X" [ i; j ] ] ]
  in
  let n2 =
    nest [ loop "j" 1 (n - 2); loop "i" 0 (n - 1) ]
      [ asn (w "X" [ i; j ]) [ r "W" [ i; j -! 1 ] ] ]
  in
  (Program.make "stencil" [ wa; x ] [ n1; n2 ], n1, n2)

let test_fusion_legality () =
  let _, n1, n2 = stencil_nests 16 in
  (* W(i,j) written at j, read at j+1 by nest2 (its j-1 = nest1's j):
     distance +1 -> direct fusion legal *)
  check_bool "legal at shift 0" true (An.Dependence.fusion_legal ~shift:0 n1 n2);
  (* reversed direction: nest2 reading W(i,j+1) needs a shift *)
  let open Build in
  let i = v "i" and j = v "j" in
  let n2' =
    nest [ loop "j" 1 13; loop "i" 0 15 ]
      [ asn (w "X" [ i; j ]) [ r "W" [ i; j +! 1 ] ] ]
  in
  let n1' =
    nest [ loop "j" 1 13; loop "i" 0 15 ]
      [ asn (w "W" [ i; j ]) [ r "X" [ i; j -! 1 ] ] ]
  in
  check_bool "illegal at shift 0" false (An.Dependence.fusion_legal ~shift:0 n1' n2');
  check_bool "legal at shift 1" true (An.Dependence.fusion_legal ~shift:1 n1' n2');
  Alcotest.(check (option int)) "min shift" (Some 1)
    (An.Dependence.min_legal_shift ~max_shift:8 n1' n2')

let test_permutation_legality () =
  let open Build in
  let n = 8 in
  let a = arr "A" [ n; n ] in
  ignore a;
  let i = v "i" and j = v "j" in
  (* A(i,j) = A(i-1,j+1): distance (i:+1, j:-1); swapping loops flips the
     lex sign -> illegal *)
  let nest_skewed =
    nest [ loop "i" 1 (n - 1); loop "j" 0 (n - 2) ]
      [ asn (w "A" [ i; j ]) [ r "A" [ i -! 1; j +! 1 ] ] ]
  in
  check_bool "interchange illegal" false
    (An.Dependence.permutation_legal nest_skewed [ "j"; "i" ]);
  check_bool "identity legal" true
    (An.Dependence.permutation_legal nest_skewed [ "i"; "j" ]);
  (* pure stencil read/write with distance (0,+1) permutes fine *)
  let nest_ok =
    nest [ loop "i" 0 (n - 1); loop "j" 1 (n - 1) ]
      [ asn (w "A" [ i; j ]) [ r "A" [ i; j -! 1 ] ] ]
  in
  check_bool "interchange legal" true
    (An.Dependence.permutation_legal nest_ok [ "j"; "i" ])

let test_permutation_star_reduction () =
  (* matmul: C(i,j) updated across k -> '*' on k, zeros elsewhere; any
     permutation is legal *)
  let p = Locality.Tiling.matmul 8 in
  let nest = List.hd p.Program.nests in
  List.iter
    (fun order ->
      check_bool (String.concat "" order) true
        (An.Dependence.permutation_legal nest order))
    [ [ "J"; "K"; "I" ]; [ "I"; "J"; "K" ]; [ "K"; "I"; "J" ] ]

let test_permutation_star_blocks_unsound () =
  (* S(i) written under (i,j) nests with another '*' var in front:
     vector ('*' on j only when S(i) vs S(i)) — here S(0) scalar-like
     ref under two loops: '*' on both -> only identity-ish orders pass *)
  let open Build in
  let s = arr "S" [ 4 ] in
  ignore s;
  let nest_scalar =
    nest [ loop "i" 0 3; loop "j" 0 3 ]
      [ asn (w "S" [ c 0 ]) [ r "S" [ c 0 ] ] ]
  in
  check_bool "two-star dep blocks interchange" false
    (An.Dependence.permutation_legal nest_scalar [ "j"; "i" ])

let test_permutation_self_output () =
  (* B(i+j) = A(i,j): the write depends on itself at distance (1,-1), so
     (j,i) would leave B(3) holding A(0,3) instead of A(3,0) *)
  let open Build in
  let b = arr "B" [ 7 ] and a = arr "A" [ 4; 4 ] in
  ignore (a, b);
  let i = v "i" and j = v "j" in
  let nest_sum =
    nest [ loop "i" 0 3; loop "j" 0 3 ] [ asn (w "B" [ Expr.add i j ]) [ r "A" [ i; j ] ] ]
  in
  check_bool "self output dependence blocks interchange" false
    (An.Dependence.permutation_legal nest_sum [ "j"; "i" ])

(* --- Fusion model: the paper's Section 4 numbers ------------------------ *)

(* Under GROUPPAD, Figure 4's layout preserves B's arcs on L1 but not A's
   and C's.  We reproduce the classification counts the paper derives:
   original: 5 memory refs + 2 L2 refs; fused: 3 memory refs + 3 L2 refs. *)
let grouppad_layout () =
  let layout = Layout.initial fig2 in
  Locality.Grouppad.apply ~size:l1_size ~line:l1_line fig2 layout

let test_section4_original_counts () =
  let layout = grouppad_layout () in
  let counts =
    An.Fusion_model.count layout ~l1_size fig2.Program.nests
  in
  check_int "memory refs" 5 counts.An.Fusion_model.memory_refs;
  check_int "l2 refs" 2 counts.An.Fusion_model.l2_refs;
  check_int "l1 hits" 3 counts.An.Fusion_model.l1_hits

let test_section4_fused_counts () =
  (* Apply GROUPPAD to the fused program, as the paper does (Figure 7). *)
  let layout =
    Locality.Grouppad.apply ~size:l1_size ~line:l1_line fig6 (Layout.initial fig6)
  in
  let counts = An.Fusion_model.count layout ~l1_size fig6.Program.nests in
  check_int "memory refs" 3 counts.An.Fusion_model.memory_refs;
  check_int "l2 refs" 3 counts.An.Fusion_model.l2_refs;
  check_int "l1 hits" 1 counts.An.Fusion_model.l1_hits;
  check_int "register refs" 3 counts.An.Fusion_model.register

let test_fusion_profitability_weighting () =
  let layout = grouppad_layout () in
  let layout_fused =
    Locality.Grouppad.apply ~size:l1_size ~line:l1_line fig6 (Layout.initial fig6)
  in
  let before = An.Fusion_model.count layout ~l1_size fig2.Program.nests in
  let after = An.Fusion_model.count layout_fused ~l1_size fig6.Program.nests in
  (* Memory misses cost much more than L2 hits: fusion wins (5*mem + 2*l2
     vs 3*mem + 3*l2). *)
  let cost = An.Fusion_model.miss_cost ~l2_cost:6.0 ~memory_cost:50.0 in
  check_bool "fusion profitable at realistic costs" true (cost after < cost before);
  (* If L2 misses were nearly free and L1 misses everything, fusion's L1
     loss shows: 2 -> 3 L2 refs *)
  let cost_l1 = An.Fusion_model.miss_cost ~l2_cost:50.0 ~memory_cost:51.0 in
  check_bool "l1-heavy costs penalize fusion less clearly" true
    (cost_l1 after < cost_l1 before
    || after.An.Fusion_model.l2_refs > before.An.Fusion_model.l2_refs)

(* --- Diagram -------------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

let test_diagram_renders () =
  (* Under GROUPPAD at the Figure 4 geometry only one of the three
     first-nest arcs survives: the rendering must show both outcomes. *)
  let layout = grouppad_layout () in
  let first = { fig2 with Program.nests = [ List.hd fig2.Program.nests ] } in
  let out = An.Diagram.render_program layout ~size:l1_size ~line:l1_line first in
  check_bool "has a cache box" true
    (String.split_on_char '\n' out
    |> List.exists (fun l -> String.length l > 0 && String.contains l '|'));
  check_bool "mentions the cache size" true (contains out "16384");
  check_bool "some arc preserved" true (contains out "PRESERVED");
  check_bool "some arc lost" true (contains out "lost");
  check_bool "no severe conflicts under GROUPPAD" true
    (contains out "severe conflicts: 0");
  (* program rendering covers every nest *)
  let all = An.Diagram.render_program layout ~size:l1_size ~line:l1_line fig2 in
  check_bool "two nests rendered" true (contains all "nest 1:")

(* --- Loop cost (Miss_predict.rank_permutations) ------------------------ *)

let test_loop_cost_prefers_unit_stride () =
  let p = K.Paper_examples.figure1 ~n:256 ~m:256 in
  let layout = Layout.initial p in
  let nest = List.hd p.Program.nests in
  let ranked = An.Miss_predict.rank_permutations layout ~line:32 nest in
  let cost_orig = List.assoc [ "j"; "i" ] ranked in
  let cost_perm = List.assoc [ "i"; "j" ] ranked in
  check_bool "permuted (j innermost) cheaper" true (cost_perm < cost_orig);
  Alcotest.(check (list string)) "best order" [ "i"; "j" ] (fst (List.hd ranked))

let () =
  Alcotest.run "analysis"
    [
      ( "ref_group",
        [
          Alcotest.test_case "figure 2 groups" `Quick test_groups_fig2;
          Alcotest.test_case "non-uniform split" `Quick test_group_not_uniform;
        ] );
      ( "arcs",
        [
          Alcotest.test_case "packed layout conflicts" `Quick test_packed_layout_conflicts;
          Alcotest.test_case "figure 2 arcs" `Quick test_arcs_of_fig2;
          Alcotest.test_case "preservation geometry" `Quick test_arc_preservation_geometry;
          Alcotest.test_case "capacity bound" `Quick test_capacity_argument;
        ] );
      ( "dependence",
        [
          Alcotest.test_case "distances" `Quick test_dependence_distance;
          Alcotest.test_case "fusion legality" `Quick test_fusion_legality;
          Alcotest.test_case "permutation legality" `Quick test_permutation_legality;
          Alcotest.test_case "reduction star" `Quick test_permutation_star_reduction;
          Alcotest.test_case "double star blocked" `Quick test_permutation_star_blocks_unsound;
          Alcotest.test_case "self output dependence" `Quick test_permutation_self_output;
        ] );
      ( "fusion_model",
        [
          Alcotest.test_case "original 5 memory + 2 L2" `Quick test_section4_original_counts;
          Alcotest.test_case "fused 3 memory + 3 L2" `Quick test_section4_fused_counts;
          Alcotest.test_case "profitability weighting" `Quick test_fusion_profitability_weighting;
        ] );
      ( "diagram",
        [ Alcotest.test_case "renders" `Quick test_diagram_renders ] );
      ( "miss_model",
        [ Alcotest.test_case "prefers unit stride" `Quick test_loop_cost_prefers_unit_stride ] );
    ]
