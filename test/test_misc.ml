(* Edge-case coverage for the smaller utility surfaces: Machine
   accessors, Stats conventions, Pretty's refusals, Report formatting,
   Pipeline naming, and Registry sizing hooks. *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let test_machine_accessors () =
  let m = Cs.Machine.ultrasparc in
  check_int "S1" (16 * 1024) (Cs.Machine.s1 m);
  check_int "Lmax" 64 (Cs.Machine.lmax m);
  check_int "levels" 2 (Cs.Machine.n_levels m);
  check_int "L2 size" (512 * 1024) (Cs.Machine.level_size m 1);
  check_int "L1 line" 32 (Cs.Machine.level_line m 0);
  let m2 = Cs.Machine.with_associativity 2 m in
  check_int "assoc applied" 2
    (List.hd m2.Cs.Machine.geometries).Cs.Level.assoc;
  check_int "capacity unchanged" (Cs.Machine.s1 m) (Cs.Machine.s1 m2);
  let alpha = Cs.Machine.alpha21164 in
  check_int "alpha levels" 3 (Cs.Machine.n_levels alpha)

let test_stats_conventions () =
  let s = Cs.Stats.create () in
  Alcotest.(check (float 0.0)) "empty rate" 0.0 (Cs.Stats.local_miss_rate s);
  Cs.Stats.record s ~write:false ~hit:false;
  Cs.Stats.record s ~write:false ~hit:true;
  Alcotest.(check (float 1e-9)) "local" 0.5 (Cs.Stats.local_miss_rate s);
  (* the paper's convention: misses over total program references *)
  Alcotest.(check (float 1e-9)) "vs total refs" 0.25
    (Cs.Stats.miss_rate_vs ~total_refs:4 s);
  Alcotest.(check (float 0.0)) "zero total" 0.0 (Cs.Stats.miss_rate_vs ~total_refs:0 s)

let test_pretty_refusals () =
  (* clamped (tiled) loops have no source syntax *)
  let tiled = L.Tiling.tiled_matmul ~n:8 ~h:2 ~w:2 in
  (match Pretty.program tiled with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected refusal on clamped loops");
  (* gather subscripts have no source syntax *)
  let irr = K.Livermore.irr 100 in
  match Pretty.program irr with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected refusal on gather subscripts"

let test_pipeline_names_distinct () =
  let names = List.map L.Pipeline.strategy_name (List.map snd Mlc_engine.Job.strategies) in
  check_int "five strategies" 5 (List.length names);
  check_int "names distinct" 5 (List.length (List.sort_uniq compare names))

let test_registry_sizing () =
  let e = K.Registry.find "JACOBI512" in
  (match e.K.Registry.build_sized with
  | Some f ->
      let p = f 64 in
      check_bool "sized build" true (Program.ref_count p > 0)
  | None -> Alcotest.fail "jacobi should be size-parameterized");
  match K.Registry.find "nosuchprogram" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_expr_rendering () =
  let e = Expr.add (Expr.term 2 "i") (Expr.add (Expr.term (-1) "j") (Expr.const (-3))) in
  let show es = Pretty.ref_to_string (Ref_.read_a "A" es) in
  Alcotest.(check string) "rendering" "A(2*i-j-3)" (show [ e ]);
  Alcotest.(check string) "leading minus" "A(0-i+1)"
    (show [ Expr.add (Expr.term (-1) "i") (Expr.const 1) ]);
  Alcotest.(check string) "constant" "A(0,7)" (show [ Expr.const 0; Expr.const 7 ])

let test_subscript_gather_bounds () =
  let s = Subscript.gather ~table:[| 5; 6 |] ~index:(Expr.var "i") in
  check_int "lookup" 6 (Subscript.eval (fun _ -> 1) s);
  match Subscript.eval (fun _ -> 7) s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds failure"

let test_layout_errors () =
  let a = Array_decl.make "A" [ 4 ] in
  let l = Layout.of_arrays [ a ] in
  (match Layout.base l "Z" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown array must raise");
  match Layout.set_pad_before l "A" (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative pad must raise"

let test_report_table_alignment () =
  (* smoke: table printing never raises on ragged rows *)
  L.Report.table ~title:"t" ~columns:[ "a"; "bb" ] [ [ "1" ]; [ "22"; "333" ] ];
  L.Report.series ~title:"s" ~x_label:"x" ~labels:[ "y" ] [ (1, [ 2.0 ]) ]

let () =
  Alcotest.run "misc"
    [
      ( "cachesim",
        [
          Alcotest.test_case "machine accessors" `Quick test_machine_accessors;
          Alcotest.test_case "stats conventions" `Quick test_stats_conventions;
        ] );
      ( "ir",
        [
          Alcotest.test_case "pretty refusals" `Quick test_pretty_refusals;
          Alcotest.test_case "expr rendering" `Quick test_expr_rendering;
          Alcotest.test_case "gather bounds" `Quick test_subscript_gather_bounds;
          Alcotest.test_case "layout errors" `Quick test_layout_errors;
        ] );
      ( "core",
        [
          Alcotest.test_case "pipeline names" `Quick test_pipeline_names_distinct;
          Alcotest.test_case "registry sizing" `Quick test_registry_sizing;
          Alcotest.test_case "report smoke" `Quick test_report_table_alignment;
        ] );
    ]
