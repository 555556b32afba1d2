(* Tests for the padding algorithms: PAD, MULTILVLPAD, intra-variable
   padding, GROUPPAD, MAXPAD/L2MAXPAD — including the modular-arithmetic
   properties the paper's multi-level arguments rest on. *)

open Mlc_ir
module An = Mlc_analysis
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let s1 = 16 * 1024

let l1_line = 32

let l2_size = 512 * 1024

let l2_line = 64

let fig2 = K.Paper_examples.figure2 960

(* --- PAD ----------------------------------------------------------------- *)

let test_pad_eliminates_conflicts () =
  let layout = Layout.initial fig2 in
  check_bool "conflicts before" true
    (L.Pad.remaining_conflicts ~size:s1 ~line:l1_line fig2 layout <> []);
  let padded = L.Pad.apply ~size:s1 ~line:l1_line fig2 layout in
  Alcotest.(check int) "no conflicts after" 0
    (List.length (L.Pad.remaining_conflicts ~size:s1 ~line:l1_line fig2 padded))

let test_pad_uses_few_lines () =
  (* "In practice, PAD requires only a few cache lines of padding per
     variable." *)
  let layout = Layout.initial fig2 in
  let padded = L.Pad.apply ~size:s1 ~line:l1_line fig2 layout in
  List.iter
    (fun v ->
      check_bool (v ^ " pad small") true (Layout.pad_before padded v <= 8 * l1_line))
    (Layout.array_names padded)

let test_pad_idempotent () =
  let layout = Layout.initial fig2 in
  let once = L.Pad.apply ~size:s1 ~line:l1_line fig2 layout in
  let twice = L.Pad.apply ~size:s1 ~line:l1_line fig2 once in
  List.iter
    (fun v -> check_int (v ^ " unchanged") (Layout.base once v) (Layout.base twice v))
    (Layout.array_names once)

(* --- MULTILVLPAD ---------------------------------------------------------- *)

let machine = Cs.Machine.ultrasparc

let test_multilvlpad_config () =
  let size, line = L.Multilvlpad.config machine in
  check_int "S1" s1 size;
  check_int "Lmax" 64 line

let test_multilvlpad_eliminates_both_levels () =
  let layout = Layout.initial fig2 in
  let padded = L.Multilvlpad.apply machine fig2 layout in
  check_int "L1 clean" 0
    (List.length (L.Pad.remaining_conflicts ~size:s1 ~line:l1_line fig2 padded));
  check_int "L2 clean" 0
    (List.length (L.Pad.remaining_conflicts ~size:l2_size ~line:l2_line fig2 padded))

(* The modular-arithmetic heart of MULTILVLPAD: positions at least Lmax
   apart (circularly) on a cache of size S1 remain at least Lmax apart on
   a cache of size k*S1. *)
let prop_modular_spacing =
  QCheck.Test.make
    ~name:"spacing >= Lmax on S1 implies spacing >= Lmax on k*S1" ~count:2000
    QCheck.(triple (int_range 0 10_000_000) (int_range 0 10_000_000) (int_range 1 64))
    (fun (a, b, k) ->
      let lmax = 64 in
      let circ size x y =
        let d = (x - y) mod size in
        let d = if d < 0 then d + size else d in
        min d (size - d)
      in
      let d1 = circ s1 (a mod s1) (b mod s1) in
      let dk = circ (k * s1) (a mod (k * s1)) (b mod (k * s1)) in
      QCheck.assume (d1 >= lmax);
      dk >= d1 || dk >= lmax)

(* --- Intra-variable padding ----------------------------------------------- *)

let test_intra_pad_erle () =
  (* ERLE's 64x64 planes are 32K: k and k-1 planes of the same array
     collide on a 16K cache. *)
  let p = K.Livermore.erle 64 in
  let layout = Layout.initial p in
  check_bool "self conflicts before" true
    (L.Intra_pad.remaining_self_conflicts ~size:s1 ~line:l1_line p layout <> []);
  let padded = L.Intra_pad.apply ~size:s1 ~line:l1_line p layout in
  check_int "self conflicts after" 0
    (List.length (L.Intra_pad.remaining_self_conflicts ~size:s1 ~line:l1_line p padded));
  check_bool "some column padding applied" true
    (List.exists (fun v -> Layout.intra_pad padded v > 0) (Layout.array_names padded))

(* The whole-nest formulation [Intra_pad] used before it tested the padded
   array alone: every severe conflict of the nest, same-array pairs
   included, kept where both references are to [v].  The oracle for
   [Arcs.self_conflict] and for [Intra_pad.apply]. *)
let oracle_self_conflict ~size ~line layout nest v =
  An.Arcs.severe_conflicts layout ~size ~line ~include_same_array:true nest
  |> List.exists (fun c ->
         let refs = Array.of_list (Nest.refs nest) in
         let arr i = refs.(i).Ref_.array in
         arr c.An.Arcs.a = v && arr c.An.Arcs.b = v)

let oracle_intra_pad ~size ~line program layout =
  let conflicts layout v =
    List.exists (fun nest -> oracle_self_conflict ~size ~line layout nest v) program.Program.nests
  in
  List.fold_left
    (fun layout v ->
      let rec go layout n =
        if n >= (line / 4) + 1 || not (conflicts layout v) then layout
        else go (Layout.set_intra_pad layout v (Layout.intra_pad layout v + 1)) (n + 1)
      in
      go layout 0)
    layout (Layout.array_names layout)

(* Registry kernels at the trace oracle's small sizes and, for the 2-D
   and 3-D grids, at the powers of two up to where their columns and
   planes collide on both machines' caches. *)
let intra_programs =
  Array.of_list
    (List.concat_map
       (fun e ->
         let name = e.K.Registry.name in
         let sizes =
           match name with
           | "ADI32" | "ERLE64" | "EXPL512" | "JACOBI512" | "SHAL512" | "LINPACKD" | "HYDRO2D"
           | "SWIM" | "TOMCATV" | "SU2COR" ->
               [ 64; 128; 256; 512; 1024 ]
           | "APPBT" | "APPLU" | "APPSP" | "MGRID" | "TURB3D" | "APSI" -> [ 16; 32; 64 ]
           | _ -> []
         in
         (name, Trace_oracle.small_build e)
         :: List.map
              (fun n -> (Printf.sprintf "%s at %d" name n, (Option.get e.K.Registry.build_sized) n))
              sizes)
       K.Registry.all)

let prop_intra_pad_oracle =
  let gen =
    QCheck.Gen.(
      let* k = int_bound (Array.length intra_programs - 1) in
      let* alpha = bool in
      let* pads = list_size (return 16) (pair (int_bound 64) (int_bound 5)) in
      return (k, alpha, pads))
  in
  let print (k, alpha, pads) =
    Printf.sprintf "%s on %s, (pad_before/8, intra_pad) = %s" (fst intra_programs.(k))
      (if alpha then "alpha" else "ultrasparc")
      (String.concat " " (List.map (fun (p, i) -> Printf.sprintf "(%d,%d)" p i) pads))
  in
  QCheck.Test.make ~name:"per-array self-conflict test = whole-nest oracle"
    ~count:(Qcheck_env.count 100) (QCheck.make ~print gen) (fun (k, alpha, pads) ->
      let program = snd intra_programs.(k) in
      let machine = if alpha then Cs.Machine.alpha21164 else Cs.Machine.ultrasparc in
      let layout =
        List.fold_left
          (fun (layout, i) v ->
            let pad, intra = List.nth pads (i mod List.length pads) in
            (Layout.set_intra_pad (Layout.set_pad_before layout v (8 * pad)) v intra, i + 1))
          (Layout.initial program, 0) (Layout.array_names (Layout.initial program))
        |> fst
      in
      List.for_all
        (fun { Cs.Level.size; line; _ } ->
          List.for_all
            (fun nest ->
              List.for_all
                (fun v ->
                  An.Arcs.self_conflict layout ~size ~line v nest
                  = oracle_self_conflict ~size ~line layout nest v)
                (Layout.array_names layout))
            program.Program.nests
          && L.Intra_pad.apply ~size ~line program layout
             = oracle_intra_pad ~size ~line program layout)
        machine.Cs.Machine.geometries)

(* --- GROUPPAD -------------------------------------------------------------- *)

let test_grouppad_beats_pad_on_group_reuse () =
  let layout = Layout.initial fig2 in
  let pad = L.Pad.apply ~size:s1 ~line:l1_line fig2 layout in
  let gp = L.Grouppad.apply ~size:s1 ~line:l1_line fig2 layout in
  let preserved l = L.Grouppad.preserved_references ~size:s1 fig2 l in
  check_bool "grouppad >= pad" true (preserved gp >= preserved pad);
  check_bool "grouppad preserves something" true (preserved gp > 0);
  check_int "grouppad has no severe conflicts" 0
    (L.Grouppad.conflict_count ~size:s1 ~line:l1_line fig2 gp)

let test_grouppad_figure4_counts () =
  (* At the Figure 3/4 geometry (cache ~2.13 columns) at most one of the
     three first-nest arcs can be preserved, plus both B arcs of nest 2:
     3 references exploit group reuse in total, and GROUPPAD gets them. *)
  let layout = Layout.initial fig2 in
  let gp = L.Grouppad.apply ~size:s1 ~line:l1_line fig2 layout in
  check_int "three references exploit group reuse" 3
    (L.Grouppad.preserved_references ~size:s1 fig2 gp)

(* --- MAXPAD / L2MAXPAD ------------------------------------------------------ *)

let test_maxpad_spreads () =
  let layout = Layout.initial fig2 in
  let spread = L.Maxpad.apply_l2 ~s1 ~l2_size layout in
  let positions =
    List.map (fun v -> Layout.base spread v mod l2_size) (Layout.array_names spread)
  in
  let sorted = List.sort compare positions in
  let rec min_gap acc = function
    | a :: (b :: _ as rest) -> min_gap (min acc (b - a)) rest
    | _ -> acc
  in
  let g = min_gap max_int sorted in
  (* three variables on 512K: targets 170K apart; allow slack *)
  check_bool "spread out" true (g > l2_size / 6)

let test_l2maxpad_preserves_l1_layout () =
  let layout = Layout.initial fig2 in
  let gp = L.Grouppad.apply ~size:s1 ~line:l1_line fig2 layout in
  let l2 = L.Maxpad.apply_l2 ~s1 ~l2_size gp in
  (* positions mod S1 unchanged for every array *)
  List.iter
    (fun v ->
      check_int (v ^ " L1 position kept")
        (Layout.base gp v mod s1)
        (Layout.base l2 v mod s1))
    (Layout.array_names gp);
  (* and group-reuse preservation on L1 is identical *)
  check_int "L1 preserved refs unchanged"
    (L.Grouppad.preserved_references ~size:s1 fig2 gp)
    (L.Grouppad.preserved_references ~size:s1 fig2 l2)

let test_l2maxpad_improves_l2_reuse () =
  let layout = Layout.initial fig2 in
  let gp = L.Grouppad.apply ~size:s1 ~line:l1_line fig2 layout in
  let l2 = L.Maxpad.apply_l2 ~s1 ~l2_size gp in
  let preserved l = L.Grouppad.preserved_references ~size:l2_size fig2 l in
  check_bool "L2 group reuse not worse" true (preserved l2 >= preserved gp);
  (* on the big L2 every arc should fit after spreading: all 5 arcs *)
  check_int "all arcs preserved on L2" 5 (preserved l2)

let prop_s1_multiple_pads_keep_residues =
  QCheck.Test.make ~name:"pads that are multiples of S1 keep addresses mod S1"
    ~count:200
    QCheck.(pair (int_range 0 31) (int_range 0 31))
    (fun (k1, k2) ->
      let a = Array_decl.make "A" [ 100; 100 ] in
      let b = Array_decl.make "B" [ 100; 100 ] in
      let l = Layout.of_arrays [ a; b ] in
      let l' = Layout.add_pad_before l "A" (k1 * s1) in
      let l' = Layout.add_pad_before l' "B" (k2 * s1) in
      List.for_all
        (fun v -> Layout.base l v mod s1 = Layout.base l' v mod s1)
        [ "A"; "B" ])

(* --- Pipeline ---------------------------------------------------------------- *)

let test_pipeline_strategies_run () =
  let p = K.Livermore.jacobi 128 in
  List.iter
    (fun strategy ->
      let layout = L.Pipeline.layout_for machine strategy p in
      (* the layout must still address everything in bounds *)
      check_bool
        (L.Pipeline.strategy_name strategy ^ " yields layout")
        true
        (Layout.total_bytes layout > 0))
    (List.map snd Mlc_engine.Job.strategies)

let () =
  Alcotest.run "padding"
    [
      ( "pad",
        [
          Alcotest.test_case "eliminates severe conflicts" `Quick test_pad_eliminates_conflicts;
          Alcotest.test_case "few lines of padding" `Quick test_pad_uses_few_lines;
          Alcotest.test_case "idempotent" `Quick test_pad_idempotent;
        ] );
      ( "multilvlpad",
        [
          Alcotest.test_case "config (S1, Lmax)" `Quick test_multilvlpad_config;
          Alcotest.test_case "clean on both levels" `Quick test_multilvlpad_eliminates_both_levels;
          QCheck_alcotest.to_alcotest prop_modular_spacing;
        ] );
      ( "intra",
        [
          Alcotest.test_case "ERLE self conflicts" `Quick test_intra_pad_erle;
          QCheck_alcotest.to_alcotest prop_intra_pad_oracle;
        ] );
      ( "grouppad",
        [
          Alcotest.test_case "beats PAD on group reuse" `Quick test_grouppad_beats_pad_on_group_reuse;
          Alcotest.test_case "figure 4 counts" `Quick test_grouppad_figure4_counts;
        ] );
      ( "maxpad",
        [
          Alcotest.test_case "spreads variables" `Quick test_maxpad_spreads;
          Alcotest.test_case "L2MAXPAD keeps L1 layout" `Quick test_l2maxpad_preserves_l1_layout;
          Alcotest.test_case "L2MAXPAD improves L2 reuse" `Quick test_l2maxpad_improves_l2_reuse;
          QCheck_alcotest.to_alcotest prop_s1_multiple_pads_keep_residues;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "all strategies run" `Quick test_pipeline_strategies_run ] );
    ]
