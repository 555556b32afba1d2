(* The Section 4 fusion trade-off, worked end to end: fuse the Figure 2
   nests, print the two-level reference accounting, decide profitability
   under the machine's miss costs, and confirm with the simulator.

     dune exec examples/fusion_tradeoff.exe *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

let machine = Cs.Machine.ultrasparc

let s1 = Cs.Machine.s1 machine

let () =
  let n = 960 in
  let fig2 = K.Paper_examples.figure2 n in
  let fig6 = K.Paper_examples.figure6_fused n in

  (* 1. The transformation itself: our fusion pass turns Figure 2 into
     Figure 6 (no shift needed — the bodies have no cross dependences). *)
  let fused_by_us =
    match fig2.Program.nests with
    | [ n1; n2 ] -> L.Fusion.fuse ~shift:0 n1 n2
    | _ -> assert false
  in
  Printf.printf "fusion produced %d nest(s); body has %d references\n\n"
    (List.length fused_by_us)
    (List.length (Nest.refs (List.hd fused_by_us)));

  (* 2. Static accounting under GROUPPAD (L2MAXPAD assumed on L2). *)
  let lay2 = L.Grouppad.apply ~size:s1 ~line:32 fig2 (Layout.initial fig2) in
  let lay6 = L.Grouppad.apply ~size:s1 ~line:32 fig6 (Layout.initial fig6) in
  let before = An.Fusion_model.count lay2 ~l1_size:s1 fig2.Program.nests in
  let after = An.Fusion_model.count lay6 ~l1_size:s1 fig6.Program.nests in
  Format.printf "original: %a@." An.Fusion_model.pp_counts before;
  Format.printf "fused:    %a@." An.Fusion_model.pp_counts after;
  Printf.printf
    "(the paper derives 5 memory + 2 L2 before, 3 memory + 3 L2 after)\n\n";

  (* 3. Profitability: weigh by the machine's miss costs. *)
  let l2_cost = machine.Cs.Machine.cost.Cs.Cost_model.hit_cycles.(1)
  and memory_cost = machine.Cs.Machine.cost.Cs.Cost_model.memory_cycles in
  let cost = An.Fusion_model.miss_cost ~l2_cost ~memory_cost in
  Printf.printf
    "weighted miss cost: %.0f before vs %.0f after (L2 hit %.0f cyc, memory %.0f cyc)\n"
    (cost before) (cost after) l2_cost memory_cost;
  Printf.printf "fusion is %s\n\n"
    (if cost after < cost before then "PROFITABLE" else "not profitable");

  (* 4. Simulation agrees on the direction. *)
  let run p lay = Interp.run machine lay p in
  let r2 = run fig2 lay2 and r6 = run fig6 lay6 in
  Printf.printf "simulated memory accesses: %d -> %d\n" r2.Interp.memory_accesses
    r6.Interp.memory_accesses;
  Printf.printf "simulated model cycles:    %.3e -> %.3e (%.2f%% better)\n"
    r2.Interp.cycles r6.Interp.cycles
    (Cs.Cost_model.improvement ~orig:r2.Interp.cycles ~opt:r6.Interp.cycles);

  (* 5. A case where fusion needs an alignment shift: EXPL's nests 76 and
     77 (the Figure 12 experiment). *)
  let expl = K.Livermore.expl 256 in
  let fused_expl = L.Fusion.fuse_program expl 1 in
  Printf.printf
    "\nEXPL: fused nests 76+77 with an alignment shift; program now has %d nests\n"
    (List.length fused_expl.Program.nests);
  let run_l2maxpad p =
    run p (L.Pipeline.layout_for machine L.Pipeline.Grouppad_l1_l2 p)
  in
  let ro = run_l2maxpad expl and rf = run_l2maxpad fused_expl in
  Printf.printf "EXPL memory accesses: %d -> %d\n" ro.Interp.memory_accesses
    rf.Interp.memory_accesses
