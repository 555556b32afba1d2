(* End-to-end integration tests: simulate real kernels under the paper's
   cache configuration and check the qualitative results the paper
   reports (padding reduces conflict misses; L1-targeted optimization
   captures most of the L2 benefit; L1 tiles beat L2 tiles in model
   time for matrices that fit in L2; the fusion model's predictions are
   directionally confirmed by simulation). *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality

let machine = Cs.Machine.ultrasparc

let check_bool = Alcotest.(check bool)

(* Simulate [p] under a layout strategy on the reference backend. *)
let simulate strategy p =
  Interp.run machine (L.Pipeline.layout_for machine strategy p) p

let miss_rate (r : Interp.result) level = 100.0 *. List.nth r.Interp.miss_rates level

let test_pad_improves_colliding_program () =
  (* Figure 2 program at the collision size: packed layout ping-pongs. *)
  let p = K.Paper_examples.figure2 256 in
  let orig = simulate L.Pipeline.Original p in
  let pad = simulate L.Pipeline.Pad_l1 p in
  check_bool
    (Printf.sprintf "L1 misses drop (%.1f%% -> %.1f%%)" (miss_rate orig 0)
       (miss_rate pad 0))
    true
    (miss_rate pad 0 < miss_rate orig 0);
  check_bool "L2 also improves from the L1-only pass" true
    (miss_rate pad 1 <= miss_rate orig 1)

let test_l1_opt_captures_most_l2_benefit () =
  let p = K.Paper_examples.figure2 256 in
  let orig = simulate L.Pipeline.Original p in
  let l1 = simulate L.Pipeline.Pad_l1 p in
  let both = simulate L.Pipeline.Pad_multilevel p in
  (* the multi-level version must not hurt L1 *)
  check_bool "multi-level does not hurt L1" true
    (miss_rate both 0 <= miss_rate l1 0 +. 1.0);
  (* and most of the original->multilevel L2 gain is already in L1-only *)
  let gain_l1 = miss_rate orig 1 -. miss_rate l1 1 in
  let gain_both = miss_rate orig 1 -. miss_rate both 1 in
  check_bool
    (Printf.sprintf "L1-only captures most L2 gain (%.2f of %.2f)" gain_l1 gain_both)
    true
    (gain_both <= 0.01 || gain_l1 >= 0.5 *. gain_both)

let test_jacobi_simulation_sane () =
  (* At 256², A and B are 512K each: their bases coincide mod 16K and the
     packed layout ping-pongs (that is the paper's starting point).  After
     PAD the stencil should enjoy its unit-stride locality. *)
  let p = K.Livermore.jacobi 256 in
  let orig = simulate L.Pipeline.Original p in
  check_bool "refs counted" true
    (orig.Interp.total_refs = Program.ref_count p);
  let pad = simulate L.Pipeline.Pad_l1 p in
  check_bool
    (Printf.sprintf "packed ping-pongs (%.1f%%), PAD restores locality (%.1f%%)"
       (miss_rate orig 0) (miss_rate pad 0))
    true
    (miss_rate pad 0 < 20.0 && miss_rate pad 0 < miss_rate orig 0);
  check_bool "L2 <= L1 after PAD" true (miss_rate pad 1 <= miss_rate pad 0)

let test_tiling_l1_beats_l2_within_l2 () =
  (* 200x200 doubles: 320K per array fits in 512K L2, exceeds 16K L1.
     Figure 13: "L2-sized tiles are of no use when the data already fits
     in L2 cache". *)
  let n = 200 in
  let elem = 8 in
  let l1_tile =
    L.Tile_size.select ~cache_bytes:(16 * 1024) ~elem ~col_elems:n ~rows:n ()
  in
  let l2_tile =
    L.Tile_size.select ~cache_bytes:(512 * 1024) ~elem ~col_elems:n ~rows:n ()
  in
  let run tile =
    let p =
      L.Tiling.tiled_matmul ~n ~h:tile.L.Tile_size.height ~w:tile.L.Tile_size.width
    in
    Interp.run machine (Layout.initial p) p
  in
  let r_l1 = run l1_tile and r_l2 = run l2_tile in
  check_bool
    (Printf.sprintf "L1 tile %.0f cycles <= L2 tile %.0f cycles"
       r_l1.Interp.cycles r_l2.Interp.cycles)
    true
    (r_l1.Interp.cycles <= r_l2.Interp.cycles)

let test_tiling_beats_untiled_beyond_l1 () =
  let n = 200 in
  let tile = L.Tile_size.select ~cache_bytes:(16 * 1024) ~elem:8 ~col_elems:n ~rows:n () in
  let tiled =
    L.Tiling.tiled_matmul ~n ~h:tile.L.Tile_size.height ~w:tile.L.Tile_size.width
  in
  let untiled = L.Tiling.matmul n in
  let r_t = Interp.run machine (Layout.initial tiled) tiled in
  let r_u = Interp.run machine (Layout.initial untiled) untiled in
  check_bool
    (Printf.sprintf "tiled %.2e < untiled %.2e cycles" r_t.Interp.cycles
       r_u.Interp.cycles)
    true
    (r_t.Interp.cycles < r_u.Interp.cycles)

let test_grouppad_l2maxpad_on_expl () =
  (* A reduced EXPL still shows: GROUPPAD+L2MAXPAD never hurts L1 and
     does not increase L2 misses. *)
  let p = K.Livermore.expl 256 in
  let l1 = simulate L.Pipeline.Grouppad_l1 p in
  let both = simulate L.Pipeline.Grouppad_l1_l2 p in
  check_bool "L1 unchanged by L2MAXPAD" true
    (abs_float (miss_rate both 0 -. miss_rate l1 0) < 0.5);
  check_bool "L2 not worse" true (miss_rate both 1 <= miss_rate l1 1 +. 0.25)

let test_fusion_model_directionally_confirmed () =
  (* Fuse the Figure 2 program and check the simulator agrees with the
     model that memory accesses go down. *)
  let n = 960 in
  let fig2 = K.Paper_examples.figure2 n in
  let fig6 = K.Paper_examples.figure6_fused n in
  let o2 = simulate L.Pipeline.Grouppad_l1_l2 fig2 in
  let o6 = simulate L.Pipeline.Grouppad_l1_l2 fig6 in
  (* memory accesses per reference should drop after fusion *)
  let mem_per_ref o =
    float_of_int o.Interp.memory_accesses
    /. float_of_int o.Interp.total_refs
  in
  check_bool
    (Printf.sprintf "memory/ref falls with fusion (%.4f -> %.4f)" (mem_per_ref o2)
       (mem_per_ref o6))
    true
    (mem_per_ref o6 < mem_per_ref o2)

let test_associativity_treated_as_direct_mapped () =
  (* The paper: treating k-way caches as direct-mapped for optimization
     achieves nearly all the benefit.  Here: PAD computed for the
     direct-mapped model still helps (or at least never hurts) on a
     2-way machine. *)
  let p = K.Paper_examples.figure2 256 in
  let assoc_machine = Cs.Machine.with_associativity 2 machine in
  let layout_orig = Layout.initial p in
  let layout_pad = L.Pipeline.layout_for machine L.Pipeline.Pad_l1 p in
  let r_orig = Interp.run assoc_machine layout_orig p in
  let r_pad = Interp.run assoc_machine layout_pad p in
  check_bool "PAD never hurts on the associative cache" true
    (r_pad.Interp.cycles <= r_orig.Interp.cycles *. 1.02)

let test_three_level_machine () =
  (* extension: the Alpha-style 3-level hierarchy runs end-to-end *)
  let alpha = Cs.Machine.alpha21164 in
  let p = K.Livermore.jacobi 128 in
  let result = Interp.run alpha (Layout.initial p) p in
  Alcotest.(check int) "three miss rates" 3 (List.length result.Interp.miss_rates);
  let padded = L.Multilvlpad.apply alpha p (Layout.initial p) in
  check_bool "multilvlpad runs on 3 levels" true (Layout.total_bytes padded > 0)

let () =
  Alcotest.run "integration"
    [
      ( "padding",
        [
          Alcotest.test_case "PAD improves colliding program" `Slow
            test_pad_improves_colliding_program;
          Alcotest.test_case "L1-opt captures most L2 benefit" `Slow
            test_l1_opt_captures_most_l2_benefit;
          Alcotest.test_case "GROUPPAD+L2MAXPAD on EXPL" `Slow
            test_grouppad_l2maxpad_on_expl;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "jacobi sane" `Slow test_jacobi_simulation_sane;
          Alcotest.test_case "associativity" `Slow
            test_associativity_treated_as_direct_mapped;
          Alcotest.test_case "three-level machine" `Slow test_three_level_machine;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "L1 tile beats L2 tile (fits L2)" `Slow
            test_tiling_l1_beats_l2_within_l2;
          Alcotest.test_case "tiling beats untiled" `Slow
            test_tiling_beats_untiled_beyond_l1;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "model directionally confirmed" `Slow
            test_fusion_model_directionally_confirmed;
        ] );
    ]
