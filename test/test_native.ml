(* Tests for the native (really executed) kernels: the tiled matmul must
   compute the same product as the untiled one for every tile shape, and
   the fused EXPL update must match the separate sweeps bit-for-bit. *)

module N = Mlc_native

(* Sum of a grid's interior: what the stencil sweeps write. *)
let checksum (g : N.Nat_stencil.grid) =
  let acc = ref 0.0 in
  for j = 1 to g.n - 2 do
    for i = 1 to g.n - 2 do
      acc := !acc +. g.data.(i + (g.ld * j))
    done
  done;
  !acc

let test_matmul_tiled_equals_untiled () =
  let n = 48 in
  let a = N.Nat_matmul.create n and b = N.Nat_matmul.create n in
  N.Nat_matmul.random_fill ~seed:1 a;
  N.Nat_matmul.random_fill ~seed:2 b;
  let c1 = N.Nat_matmul.create n in
  N.Nat_matmul.multiply ~c:c1 ~a ~b;
  List.iter
    (fun (h, w) ->
      let c = N.Nat_matmul.create n in
      N.Nat_matmul.multiply_tiled ~h ~w ~c ~a ~b;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "tile %dx%d" h w)
        0.0
        (N.Nat_matmul.max_abs_diff c c1))
    [ (1, 1); (4, 4); (7, 5); (16, 3); (48, 48); (64, 64) ]

let prop_tiled_matmul_correct =
  QCheck.Test.make ~name:"tiled matmul = untiled for random tiles" ~count:30
    QCheck.(triple (int_range 2 24) (int_range 1 30) (int_range 1 30))
    (fun (n, h, w) ->
      let a = N.Nat_matmul.create n and b = N.Nat_matmul.create n in
      N.Nat_matmul.random_fill ~seed:3 a;
      N.Nat_matmul.random_fill ~seed:4 b;
      let c1 = N.Nat_matmul.create n and c2 = N.Nat_matmul.create n in
      N.Nat_matmul.multiply ~c:c1 ~a ~b;
      N.Nat_matmul.multiply_tiled ~h ~w ~c:c2 ~a ~b;
      N.Nat_matmul.max_abs_diff c1 c2 = 0.0)

let test_jacobi_padding_agnostic () =
  (* the same computation on padded and unpadded grids gives identical
     interior values *)
  let n = 32 in
  let run ld =
    let a = N.Nat_stencil.create ?ld n and b = N.Nat_stencil.create ?ld n in
    N.Nat_stencil.random_fill ~seed:7 b;
    (* ld only changes layout, seed fill touches padding too: refill the
       interior deterministically by (i,j) instead *)
    for j = 0 to n - 1 do
      for i = 0 to n - 1 do
        b.N.Nat_stencil.data.(i + (b.N.Nat_stencil.ld * j)) <-
          float_of_int (((i * 31) + (j * 17)) mod 97) /. 97.0
      done
    done;
    N.Nat_stencil.jacobi ~steps:3 ~a ~b;
    checksum b
  in
  Alcotest.(check (float 1e-12)) "padding does not change values" (run None)
    (run (Some (n + 8)))

let test_expl_fused_equals_separate () =
  let n = 64 in
  let mk seed =
    let g = N.Nat_stencil.create n in
    N.Nat_stencil.random_fill ~seed g;
    g
  in
  let run fused =
    let za = mk 1 and zb = mk 2 and zu = mk 3 and zv = mk 4 and zr = mk 5 and zz = mk 6 in
    if fused then N.Nat_stencil.expl_fused ~za ~zb ~zu ~zv ~zr ~zz
    else N.Nat_stencil.expl_separate ~za ~zb ~zu ~zv ~zr ~zz;
    ( checksum zu,
      checksum zv,
      checksum zr,
      checksum zz )
  in
  let u1, v1, r1, z1 = run false in
  let u2, v2, r2, z2 = run true in
  Alcotest.(check (float 0.0)) "zu" u1 u2;
  Alcotest.(check (float 0.0)) "zv" v1 v2;
  Alcotest.(check (float 0.0)) "zr" r1 r2;
  Alcotest.(check (float 0.0)) "zz" z1 z2

let () =
  Alcotest.run "native"
    [
      ( "matmul",
        [
          Alcotest.test_case "tiled = untiled (fixed tiles)" `Quick
            test_matmul_tiled_equals_untiled;
          QCheck_alcotest.to_alcotest prop_tiled_matmul_correct;
        ] );
      ( "stencil",
        [
          Alcotest.test_case "jacobi padding-agnostic" `Quick test_jacobi_padding_agnostic;
          Alcotest.test_case "EXPL fused = separate" `Quick test_expl_fused_equals_separate;
        ] );
    ]
