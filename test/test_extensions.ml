(* Tests for the extensions: time-step tiling and the unrolled native
   matmul. *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module N = Mlc_native

let check_bool = Alcotest.(check bool)

(* --- Time-step tiling (Song & Li exception) ---------------------------------- *)

let test_time_tiled_interior_work () =
  let n = 40 and steps = 4 in
  let plain = K.Time_kernels.sweep_2d ~n ~steps in
  let tiled = K.Time_kernels.time_tiled_2d ~n ~steps ~block:8 in
  Validate.check_exn plain;
  Validate.check_exn tiled;
  (* the tiled version performs the interior work: at most the full
     sweep, at least the sweep minus the trimmed wedges *)
  let full = Program.ref_count plain in
  let tiled_refs = Program.ref_count tiled in
  check_bool "within the full sweep" true (tiled_refs <= full);
  check_bool "covers most of it" true
    (float_of_int tiled_refs > 0.7 *. float_of_int full)

let test_time_tiling_targets_l2 () =
  (* The paper's Section 5 exception: across time steps the tile's
     working set (block + steps columns) cannot fit the L1 cache for any
     reasonable block, so the tiling targets L2 — and an L2-sized block
     beats the untiled multi-sweep once the array exceeds the L2. *)
  let machine = Cs.Machine.ultrasparc in
  let n = 512 and steps = 8 in
  let col_bytes = n * 8 in
  (* no feasible L1 tile: even block = 1 overflows the 16K L1 *)
  check_bool "L1 cannot hold any time tile" true
    (K.Time_kernels.tile_columns ~steps ~block:1 * col_bytes
    > Cs.Machine.s1 machine);
  let l2_cols = Cs.Machine.level_size machine 1 / col_bytes in
  let block = max 1 ((l2_cols / 2) - steps) in
  check_bool "array exceeds L2" true
    (n * n * 8 > Cs.Machine.level_size machine 1);
  let cycles p = (Interp.run machine (Layout.initial p) p).Interp.cycles in
  let untiled = K.Time_kernels.sweep_2d ~n ~steps in
  let tiled = K.Time_kernels.time_tiled_2d ~n ~steps ~block in
  (* normalize by work: the tiled interior does slightly fewer
     iterations (trimmed wedges), so compare cycles per reference *)
  let per_ref p =
    let r = Interp.run machine (Layout.initial p) p in
    r.Interp.cycles /. float_of_int r.Interp.total_refs
  in
  ignore cycles;
  check_bool
    (Printf.sprintf "L2 time tile (block %d) beats untiled (%.2f vs %.2f cyc/ref)"
       block (per_ref tiled) (per_ref untiled))
    true
    (per_ref tiled < per_ref untiled)

(* --- Native unrolled matmul --------------------------------------------------- *)

let test_unrolled_matmul_exact () =
  List.iter
    (fun n ->
      let a = N.Nat_matmul.create n and b = N.Nat_matmul.create n in
      N.Nat_matmul.random_fill ~seed:5 a;
      N.Nat_matmul.random_fill ~seed:6 b;
      let c1 = N.Nat_matmul.create n and c2 = N.Nat_matmul.create n in
      N.Nat_matmul.multiply ~c:c1 ~a ~b;
      N.Nat_matmul.multiply_unrolled ~c:c2 ~a ~b;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "n=%d bitwise equal" n)
        0.0
        (N.Nat_matmul.max_abs_diff c1 c2))
    [ 1; 3; 4; 17; 32 ]

let () =
  Alcotest.run "extensions"
    [
      ( "time_tiling",
        [
          Alcotest.test_case "interior work" `Quick test_time_tiled_interior_work;
          Alcotest.test_case "targets L2 (Song-Li)" `Slow test_time_tiling_targets_l2;
        ] );
      ( "native",
        [ Alcotest.test_case "unrolled matmul exact" `Quick test_unrolled_matmul_exact ] );
    ]
