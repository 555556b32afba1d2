(* The paper's Figure 2 program end-to-end: PAD vs GROUPPAD vs
   GROUPPAD+L2MAXPAD, with the arc accounting (Figures 3-5) printed for
   each layout.

     dune exec examples/stencil_padding.exe *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

let machine = Cs.Machine.ultrasparc

let s1 = Cs.Machine.s1 machine

let l2 = Cs.Machine.level_size machine 1

let describe name p layout =
  let preserved_l1 = L.Grouppad.preserved_references ~size:s1 p layout in
  let preserved_l2 = L.Grouppad.preserved_references ~size:l2 p layout in
  let conflicts = L.Grouppad.conflict_count ~size:s1 ~line:32 p layout in
  let r = Interp.run machine layout p in
  Printf.printf
    "%-22s severe conflicts: %d   group reuse on L1: %d refs, on L2: %d refs\n"
    name conflicts preserved_l1 preserved_l2;
  Printf.printf "%-22s L1 miss %5.2f%%  L2 miss %5.2f%%  model cycles %.3e\n\n" ""
    (100.0 *. List.nth r.Interp.miss_rates 0)
    (100.0 *. List.nth r.Interp.miss_rates 1)
    r.Interp.cycles

let () =
  (* N = 960 recreates the paper's diagram geometry: the L1 cache holds a
     bit more than two columns, and whole arrays are multiples of the
     cache size so the packed layout collides completely. *)
  let n = 960 in
  let p = K.Paper_examples.figure2 n in
  Printf.printf
    "Figure 2 program at N=%d (column %dB, L1 %dB = %.2f columns)\n\n" n (n * 8)
    s1
    (float_of_int s1 /. float_of_int (n * 8));

  describe "packed" p (Layout.initial p);
  describe "PAD" p (L.Pad.apply ~size:s1 ~line:32 p (Layout.initial p));
  let gp = L.Grouppad.apply ~size:s1 ~line:32 p (Layout.initial p) in
  describe "GROUPPAD" p gp;
  let gp_l2 = L.Maxpad.apply_l2 ~s1 ~l2_size:l2 gp in
  describe "GROUPPAD+L2MAXPAD" p gp_l2;

  (* The L2MAXPAD invariant: base residues mod S1 are untouched. *)
  Printf.printf "L2MAXPAD pads (multiples of S1 preserve the L1 layout):\n";
  List.iter
    (fun v ->
      Printf.printf "  %-2s base %8d -> %8d (mod S1: %d -> %d)\n" v
        (Layout.base gp v) (Layout.base gp_l2 v)
        (Layout.base gp v mod s1)
        (Layout.base gp_l2 v mod s1))
    (Layout.array_names gp);

  (* Reproduce the Section 3 narrative numbers. *)
  let counts layout =
    An.Fusion_model.count layout ~l1_size:s1 p.Program.nests
  in
  let c = counts gp_l2 in
  Printf.printf
    "\nSection 4 accounting under GROUPPAD(+L2MAXPAD assumed):\n\
    \  memory refs = %d, L2 refs = %d, L1 hits = %d (paper: 5, 2, 3)\n"
    c.An.Fusion_model.memory_refs c.An.Fusion_model.l2_refs
    c.An.Fusion_model.l1_hits
