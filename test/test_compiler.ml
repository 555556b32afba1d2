(* The combined pipeline: never illegal, decisions logged, and on the
   kernel suite it never loses to the untouched program by more than
   noise while winning clearly on the conflict-ridden ones. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

let machine = Cs.Machine.ultrasparc

let check_bool = Alcotest.(check bool)

let cycles layout p = (Interp.run machine layout p).Interp.cycles

let test_never_hurts_kernel_suite () =
  List.iter
    (fun (label, p) ->
      let r = L.Compiler.optimize machine p in
      let before = cycles (Layout.initial p) p in
      let after = cycles r.L.Compiler.layout r.L.Compiler.program in
      check_bool
        (Printf.sprintf "%s: %.3e -> %.3e" label before after)
        true
        (after <= before *. 1.02))
    [
      ("jacobi", K.Livermore.jacobi 200);
      ("expl", K.Livermore.expl 200);
      ("adi", K.Livermore.adi 200);
      ("shal", K.Livermore.shal 100);
      ("figure1", K.Paper_examples.figure1 ~n:200 ~m:200);
      ("figure2", K.Paper_examples.figure2 256);
      ("tomcatv", K.Spec.tomcatv 129);
    ]

let test_wins_big_on_conflicts () =
  let p = K.Paper_examples.figure2 256 in
  let r = L.Compiler.optimize machine p in
  let before = cycles (Layout.initial p) p in
  let after = cycles r.L.Compiler.layout r.L.Compiler.program in
  check_bool "at least 2x better on the colliding program" true
    (after *. 2.0 < before)

let test_permutes_figure1 () =
  (* figure 1's original loop order is memory-hostile; the pipeline must
     fix it *)
  let p = K.Paper_examples.figure1 ~n:128 ~m:128 in
  let r = L.Compiler.optimize machine p in
  let nest = List.hd r.L.Compiler.program.Program.nests in
  Alcotest.(check (list string)) "j innermost" [ "i"; "j" ] (Nest.vars nest);
  check_bool "logged" true
    (List.exists
       (fun l -> String.length l >= 8 && String.sub l 0 8 = "permuted")
       r.L.Compiler.log)

let test_fuses_figure2 () =
  let p = K.Paper_examples.figure2 960 in
  let r = L.Compiler.optimize machine p in
  Alcotest.(check int) "one nest after fusion" 1
    (List.length r.L.Compiler.program.Program.nests)

let test_accesses_preserved_without_scalar_replacement () =
  (* permutation + fusion + padding never change the multiset of array
     elements touched *)
  let p = K.Livermore.expl 64 in
  let r = L.Compiler.optimize machine p in
  let refs layout p = Array.length (Interp.trace layout p) in
  Alcotest.(check int) "same reference count"
    (refs (Layout.initial p) p)
    (refs r.L.Compiler.layout r.L.Compiler.program)

let test_options_disable_passes () =
  let p = K.Paper_examples.figure1 ~n:64 ~m:64 in
  (* layout passes only: no permute, no fusion *)
  let passes = L.Pipeline.passes L.Pipeline.Grouppad_l1_l2 in
  let r = L.Compiler.optimize ~passes machine p in
  let nest = List.hd r.L.Compiler.program.Program.nests in
  Alcotest.(check (list string)) "loop order untouched" [ "j"; "i" ] (Nest.vars nest)

let test_report_renders () =
  let p = K.Livermore.jacobi 128 in
  let out = L.Compiler.report machine p (L.Compiler.optimize machine p) in
  check_bool "mentions improvement" true
    (let needle = "model-time improvement" in
     let n = String.length out and m = String.length needle in
     let rec go i = i + m <= n && (String.sub out i m = needle || go (i + 1)) in
     go 0)

(* Fusion weighs the model's counts by the machine's own latencies: on
   the Alpha, an L1 miss that hits L2 costs 5 cycles and memory 80. *)
let test_fusion_priced_by_machine () =
  let machine = Cs.Machine.alpha21164 in
  let p = (K.Registry.find "EXPL512").K.Registry.build () in
  let l1_size = Cs.Machine.s1 machine and line = Cs.Machine.level_line machine 0 in
  let grouppad p = L.Grouppad.apply ~size:l1_size ~line p (Layout.initial p) in
  let n0, n1 =
    match p.Program.nests with n0 :: n1 :: _ -> (n0, n1) | _ -> assert false
  in
  let candidate = L.Fusion.fuse_program p 0 in
  let before = An.Fusion_model.count (grouppad p) ~l1_size [ n0; n1 ] in
  let after =
    An.Fusion_model.count (grouppad candidate) ~l1_size
      [ L.Fusion.core_of (L.Fusion.fuse ~shift:1 n0 n1) ]
  in
  let cost = An.Fusion_model.miss_cost ~l2_cost:5.0 ~memory_cost:80.0 in
  let _, log = L.Fusion.optimize_program machine p in
  Alcotest.(check string) "EXPL512 on alpha"
    (Printf.sprintf "nests 0,1: fused (shift 1), model cost %.0f -> %.0f" (cost before)
       (cost after))
    (List.hd log)

let () =
  Alcotest.run "compiler"
    [
      ( "pipeline",
        [
          Alcotest.test_case "never hurts the suite" `Slow test_never_hurts_kernel_suite;
          Alcotest.test_case "wins big on conflicts" `Quick test_wins_big_on_conflicts;
          Alcotest.test_case "permutes figure 1" `Quick test_permutes_figure1;
          Alcotest.test_case "fuses figure 2" `Quick test_fuses_figure2;
          Alcotest.test_case "accesses preserved" `Quick
            test_accesses_preserved_without_scalar_replacement;
          Alcotest.test_case "options" `Quick test_options_disable_passes;
          Alcotest.test_case "report" `Quick test_report_renders;
          Alcotest.test_case "fusion priced by the machine" `Quick
            test_fusion_priced_by_machine;
        ] );
    ]
