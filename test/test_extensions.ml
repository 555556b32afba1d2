(* Tests for the extension transformations: the unimodular framework
   (permutation/reversal/skewing as matrices), array transpose, loop
   distribution, time-step tiling, and the unrolled native matmul. *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality
module N = Mlc_native

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Unimodular ---------------------------------------------------------- *)

let test_matrix_algebra () =
  let open L.Unimodular in
  let id = identity 3 in
  check_int "det id" 1 (determinant id);
  let p = permutation 3 [| 2; 0; 1 |] in
  check_int "det perm" 1 (abs (determinant p));
  let r = reversal 3 1 in
  check_int "det reversal" (-1) (determinant r);
  let s = skew 3 ~target:2 ~source:0 ~factor:5 in
  check_int "det skew" 1 (determinant s);
  let prod = multiply p (multiply r s) in
  check_int "det multiplicative" 1 (abs (determinant prod));
  let inv = inverse prod in
  let again = multiply prod inv in
  Alcotest.(check bool) "inverse" true (again = identity 3)

let test_unimodular_permutation_matches_permute () =
  let p = K.Paper_examples.figure1 ~n:8 ~m:8 in
  let nest = List.hd p.Program.nests in
  (* swap the two loops via the matrix framework *)
  let t = L.Unimodular.permutation 2 [| 1; 0 |] in
  let transformed = L.Unimodular.apply nest t in
  Alcotest.(check (list string)) "loop order swapped" [ "i"; "j" ]
    (Nest.vars transformed);
  let layout = Layout.initial p in
  let p' = Program.set_nest p 0 transformed in
  Alcotest.(check (array int)) "same accesses"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p')

let test_unimodular_reversal () =
  let open Build in
  let a = arr "A" [ 8; 8 ] in
  let i = v "i" and j = v "j" in
  let n1 =
    nest [ loop "i" 0 7; loop "j" 0 7 ] [ asn (w "A" [ i; j ]) [ r "A" [ i; j ] ] ]
  in
  let p = program "rev" [ a ] [ n1 ] in
  let t = L.Unimodular.reversal 2 1 in
  let transformed = L.Unimodular.apply n1 t in
  let layout = Layout.initial p in
  let p' = Program.set_nest p 0 transformed in
  Alcotest.(check (array int)) "same multiset"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p');
  (* per outer iteration the inner sweep must run backwards *)
  let tr = Interp.trace layout p' in
  check_bool "first access is column end" true (tr.(0) > tr.(2))

let test_unimodular_skew_wavefront () =
  (* A(i,j) = A(i-1,j+1) + A(i,j-1): the (1,-1) dependence forbids
     interchange, but skewing j by i turns it into (1,0), after which
     interchange is legal — the classic wavefront. *)
  let open Build in
  let a = arr "A" [ 20; 20 ] in
  let i = v "i" and j = v "j" in
  let n1 =
    nest [ loop "i" 1 8; loop "j" 1 8 ]
      [ asn (w "A" [ i; j ]) [ r "A" [ i -! 1; j +! 1 ]; r "A" [ i; j -! 1 ] ] ]
  in
  let p = program "wave" [ a ] [ n1 ] in
  let layout = Layout.initial p in
  (* direct interchange: illegal *)
  (match L.Unimodular.apply n1 (L.Unimodular.permutation 2 [| 1; 0 |]) with
  | exception L.Unimodular.Illegal _ -> ()
  | _ -> Alcotest.fail "interchange should be illegal");
  (* skew then interchange: legal, same accesses *)
  let t =
    L.Unimodular.multiply
      (L.Unimodular.permutation 2 [| 1; 0 |])
      (L.Unimodular.skew 2 ~target:1 ~source:0 ~factor:1)
  in
  let transformed = L.Unimodular.apply n1 t in
  let p' = Program.set_nest p 0 transformed in
  Alcotest.(check (array int)) "wavefront preserves accesses"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p')

let test_unimodular_skew_only () =
  let open Build in
  let a = arr "A" [ 30; 30 ] in
  let i = v "i" and j = v "j" in
  let n1 =
    nest [ loop "i" 0 7; loop "j" 0 7 ] [ asn (w "A" [ i; j ]) [ r "A" [ i; j ] ] ]
  in
  let p = program "skew" [ a ] [ n1 ] in
  let layout = Layout.initial p in
  let t = L.Unimodular.skew 2 ~target:1 ~source:0 ~factor:2 in
  let transformed = L.Unimodular.apply n1 t in
  check_int "same iteration count" (Nest.iterations n1) (Nest.iterations transformed);
  let p' = Program.set_nest p 0 transformed in
  Alcotest.(check (array int)) "skew preserves accesses"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p')

(* --- Transpose ------------------------------------------------------------ *)

let test_transpose_figure1 () =
  (* Figure 1's data-layout alternative: transposing A makes the original
     loop order unit-stride, like loop permutation does. *)
  let p = K.Paper_examples.figure1 ~n:64 ~m:64 in
  let transposed = L.Transpose.transpose_2d p "A" in
  let machine = Cs.Machine.ultrasparc in
  let r_orig = Interp.run machine (Layout.initial p) p in
  let r_trans = Interp.run machine (Layout.initial transposed) transposed in
  check_int "same refs" r_orig.Interp.total_refs r_trans.Interp.total_refs;
  check_bool "transpose reduces L1 misses" true
    (List.hd r_trans.Interp.misses < List.hd r_orig.Interp.misses)

let test_transpose_is_involution () =
  let p = K.Paper_examples.figure1 ~n:8 ~m:6 in
  let twice = L.Transpose.transpose_2d (L.Transpose.transpose_2d p "A") "A" in
  let layout = Layout.initial p in
  Alcotest.(check (array int)) "double transpose is identity"
    (Interp.trace layout p) (Interp.trace (Layout.initial twice) twice)

let test_transpose_optimize () =
  let p = K.Paper_examples.figure1 ~n:64 ~m:64 in
  let optimized, transposed = L.Transpose.optimize p (Layout.initial p) ~line:32 in
  Alcotest.(check (list string)) "A transposed" [ "A" ] transposed;
  let machine = Cs.Machine.ultrasparc in
  let r0 = Interp.run machine (Layout.initial p) p in
  let r1 = Interp.run machine (Layout.initial optimized) optimized in
  check_bool "fewer misses" true (List.hd r1.Interp.misses < List.hd r0.Interp.misses)

(* --- Distribution ----------------------------------------------------------- *)

let test_distribution_roundtrip_with_fusion () =
  let fig6 = K.Paper_examples.figure6_fused 32 in
  let nest = List.hd fig6.Program.nests in
  let parts = L.Distribution.maximal nest in
  check_int "five nests" 5 (List.length parts);
  let p' = { fig6 with Program.nests = parts } in
  let layout = Layout.initial fig6 in
  Alcotest.(check (array int)) "same multiset of accesses"
    (Trace_oracle.sorted_trace layout fig6) (Trace_oracle.sorted_trace layout p')

let test_distribution_rejects_backward_dep () =
  let open Build in
  let a = arr "A" [ 16 ] and b = arr "B" [ 16 ] in
  ignore (a, b);
  let i = v "i" in
  (* s0 consumes what s1 wrote on a previous iteration: splitting [s0]
     before [s1] would starve it. *)
  let nest_bad =
    nest [ loop "i" 1 14 ]
      [
        asn (w "A" [ i ]) [ r "B" [ i -! 1 ] ];
        asn (w "B" [ i ]) [ r "A" [ i ] ];
      ]
  in
  (* the two statements form a recurrence cycle (s0 reads B written by
     s1 on the previous iteration; s1 reads A written by s0 on the same
     iteration): no split order is legal *)
  (match L.Distribution.apply nest_bad [ [ 0 ]; [ 1 ] ] with
  | exception L.Distribution.Illegal _ -> ()
  | _ -> Alcotest.fail "cycle must not distribute (forward)");
  (match L.Distribution.apply nest_bad [ [ 1 ]; [ 0 ] ] with
  | exception L.Distribution.Illegal _ -> ()
  | _ -> Alcotest.fail "cycle must not distribute (backward)");
  (* a one-directional producer/consumer pair distributes fine *)
  let nest_ok =
    nest [ loop "i" 1 14 ]
      [
        asn (w "A" [ i ]) [ r "A" [ i ] ];
        asn (w "B" [ i ]) [ r "A" [ i -! 1 ] ];
      ]
  in
  match L.Distribution.apply nest_ok [ [ 0 ]; [ 1 ] ] with
  | parts -> check_int "two nests" 2 (List.length parts)
  | exception L.Distribution.Illegal _ ->
      Alcotest.fail "producer/consumer split is legal"

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
      ( "unimodular",
        [
          Alcotest.test_case "matrix algebra" `Quick test_matrix_algebra;
          Alcotest.test_case "permutation" `Quick test_unimodular_permutation_matches_permute;
          Alcotest.test_case "reversal" `Quick test_unimodular_reversal;
          Alcotest.test_case "skew + interchange wavefront" `Quick
            test_unimodular_skew_wavefront;
          Alcotest.test_case "skew only" `Quick test_unimodular_skew_only;
        ] );
      ( "transpose",
        [
          Alcotest.test_case "figure 1" `Quick test_transpose_figure1;
          Alcotest.test_case "involution" `Quick test_transpose_is_involution;
          Alcotest.test_case "optimize" `Quick test_transpose_optimize;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "undoes fusion" `Quick test_distribution_roundtrip_with_fusion;
          Alcotest.test_case "rejects backward dep" `Quick
            test_distribution_rejects_backward_dep;
        ] );
      ( "time_tiling",
        [
          Alcotest.test_case "interior work" `Quick test_time_tiled_interior_work;
          Alcotest.test_case "targets L2 (Song-Li)" `Slow test_time_tiling_targets_l2;
        ] );
      ( "native",
        [ Alcotest.test_case "unrolled matmul exact" `Quick test_unrolled_matmul_exact ] );
    ]
