open Mlc_ir
open Build

let swim n =
  let p = Livermore.shal n in
  { p with Program.name = Printf.sprintf "swim%d" n }

let tomcatv n =
  let mk name = arr name [ n; n ] in
  let x = mk "X" and y = mk "Y" in
  let rx = mk "RX" and ry = mk "RY" in
  let aa = mk "AA" and dd = mk "DD" and d = mk "D" in
  let i = v "i" and j = v "j" in
  program (Printf.sprintf "tomcatv%d" n)
    [ x; y; rx; ry; aa; dd; d ]
    [
      (* residual computation: 9-point stencils on X and Y *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:12 (w "RX" [ i; j ])
            [
              r "X" [ i -! 1; j ]; r "X" [ i +! 1; j ]; r "X" [ i; j -! 1 ];
              r "X" [ i; j +! 1 ]; r "X" [ i -! 1; j -! 1 ]; r "X" [ i +! 1; j +! 1 ];
            ];
          asn ~flops:12 (w "RY" [ i; j ])
            [
              r "Y" [ i -! 1; j ]; r "Y" [ i +! 1; j ]; r "Y" [ i; j -! 1 ];
              r "Y" [ i; j +! 1 ]; r "Y" [ i -! 1; j -! 1 ]; r "Y" [ i +! 1; j +! 1 ];
            ];
          asn ~flops:6 (w "AA" [ i; j ]) [ r "X" [ i; j ]; r "Y" [ i; j ] ];
          asn ~flops:6 (w "DD" [ i; j ]) [ r "X" [ i; j ]; r "Y" [ i; j ] ];
        ];
      (* forward elimination along i (tridiagonal solves per column) *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 2 (n - 2) ]
        [
          asn ~flops:4 (w "D" [ i; j ])
            [ r "DD" [ i; j ]; r "AA" [ i; j ]; r "D" [ i -! 1; j ] ];
          asn ~flops:4 (w "RX" [ i; j ])
            [ r "RX" [ i; j ]; r "AA" [ i; j ]; r "RX" [ i -! 1; j ] ];
          asn ~flops:4 (w "RY" [ i; j ])
            [ r "RY" [ i; j ]; r "AA" [ i; j ]; r "RY" [ i -! 1; j ] ];
        ];
      (* add corrections *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:1 (w "X" [ i; j ]) [ r "X" [ i; j ]; r "RX" [ i; j ] ];
          asn ~flops:1 (w "Y" [ i; j ]) [ r "Y" [ i; j ]; r "RY" [ i; j ] ];
        ];
    ]

let apsi n =
  (* 3D fields with short vertical extent, swept column by column. *)
  let levels = 32 in
  let t = arr "T" [ levels; n; n ]
  and uu = arr "U" [ levels; n; n ]
  and q = arr "Q" [ levels; n; n ] in
  let l = v "l" and i = v "i" and j = v "j" in
  program (Printf.sprintf "apsi%d" n) [ t; uu; q ]
    [
      (* vertical diffusion columns *)
      nest
        [ loop "j" 0 (n - 1); loop "i" 0 (n - 1); loop "l" 1 (levels - 1) ]
        [
          asn ~flops:4 (w "T" [ l; i; j ])
            [ r "T" [ l; i; j ]; r "T" [ l -! 1; i; j ]; r "U" [ l; i; j ] ];
          asn ~flops:3 (w "Q" [ l; i; j ])
            [ r "Q" [ l; i; j ]; r "T" [ l; i; j ]; r "U" [ l; i; j ] ];
        ];
      (* horizontal advection at every level *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2); loop "l" 0 (levels - 1) ]
        [
          asn ~flops:6 (w "Q" [ l; i; j ])
            [
              r "Q" [ l; i; j ];
              r "Q" [ l; i -! 1; j ]; r "Q" [ l; i +! 1; j ];
              r "Q" [ l; i; j -! 1 ]; r "Q" [ l; i; j +! 1 ];
              r "U" [ l; i; j ];
            ];
        ];
    ]

let hydro2d n =
  (* HYDRO2D advances density, energy and two momenta with per-direction
     flux arrays (the Galilei-transformed hydro equations): flux build,
     conserved-variable update, and the viscosity/smoothing pass. *)
  let mk name = arr name [ n; n ] in
  let ro = mk "RO" and en = mk "EN" and mx = mk "MX" and my = mk "MY" in
  let fx = mk "FX" and fy = mk "FY" and gx = mk "GX" and gy = mk "GY" in
  let i = v "i" and j = v "j" in
  program (Printf.sprintf "hydro2d%d" n)
    [ ro; en; mx; my; fx; fy; gx; gy ]
    [
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:6 (w "FX" [ i; j ])
            [ r "MX" [ i; j ]; r "MX" [ i +! 1; j ]; r "RO" [ i; j ]; r "RO" [ i +! 1; j ] ];
          asn ~flops:6 (w "FY" [ i; j ])
            [ r "MY" [ i; j ]; r "MY" [ i; j +! 1 ]; r "RO" [ i; j ]; r "RO" [ i; j +! 1 ] ];
        ];
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:6 (w "GX" [ i; j ])
            [ r "EN" [ i; j ]; r "EN" [ i +! 1; j ]; r "MX" [ i; j ]; r "RO" [ i; j ] ];
          asn ~flops:6 (w "GY" [ i; j ])
            [ r "EN" [ i; j ]; r "EN" [ i; j +! 1 ]; r "MY" [ i; j ]; r "RO" [ i; j ] ];
        ];
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:4 (w "RO" [ i; j ])
            [ r "RO" [ i; j ]; r "FX" [ i; j ]; r "FX" [ i -! 1; j ];
              r "FY" [ i; j ]; r "FY" [ i; j -! 1 ] ];
          asn ~flops:4 (w "EN" [ i; j ])
            [ r "EN" [ i; j ]; r "GX" [ i; j ]; r "GX" [ i -! 1; j ];
              r "GY" [ i; j ]; r "GY" [ i; j -! 1 ] ];
          asn ~flops:4 (w "MX" [ i; j ])
            [ r "MX" [ i; j ]; r "FX" [ i; j ]; r "GX" [ i; j ] ];
          asn ~flops:4 (w "MY" [ i; j ])
            [ r "MY" [ i; j ]; r "FY" [ i; j ]; r "GY" [ i; j ] ];
        ];
    ]

let su2cor n =
  (* Lattice sweep over interleaved complex pairs: stride-2 accesses. *)
  let lattice = arr "GAUGE" [ 2 * n; n ] and prop = arr "PROP" [ 2 * n; n ] in
  let i = v "i" and j = v "j" in
  program (Printf.sprintf "su2cor%d" n) [ lattice; prop ]
    [
      nest
        [ loop "j" 0 (n - 1); loop "i" 0 (n - 1) ]
        [
          asn ~flops:8 (w "PROP" [ i ** 2; j ])
            [
              r "PROP" [ i ** 2; j ]; r "PROP" [ (i ** 2) +! 1; j ];
              r "GAUGE" [ i ** 2; j ]; r "GAUGE" [ (i ** 2) +! 1; j ];
            ];
          asn ~flops:8 (w "PROP" [ (i ** 2) +! 1; j ])
            [
              r "PROP" [ i ** 2; j ]; r "GAUGE" [ i ** 2; j ];
              r "GAUGE" [ (i ** 2) +! 1; j ];
            ];
        ];
    ]

let turb3d n =
  let uu = arr "U" [ n; n; n ] and vv = arr "V" [ n; n; n ] in
  let i = v "i" and j = v "j" and k = v "k" in
  program (Printf.sprintf "turb3d%d" n) [ uu; vv ]
    [
      (* x-direction butterflies *)
      nest
        [ loop "k" 0 (n - 1); loop "j" 0 (n - 1); loop "i" 0 ((n / 2) - 1) ]
        [
          asn ~flops:4 (w "U" [ i ** 2; j; k ])
            [ r "U" [ i ** 2; j; k ]; r "U" [ (i ** 2) +! 1; j; k ]; r "V" [ i ** 2; j; k ] ];
        ];
      (* z-direction pass: large-stride accesses *)
      nest
        [ loop "j" 0 (n - 1); loop "i" 0 (n - 1); loop "k" 1 (n - 1) ]
        [
          asn ~flops:4 (w "V" [ i; j; k ])
            [ r "V" [ i; j; k ]; r "V" [ i; j; k -! 1 ]; r "U" [ i; j; k ] ];
        ];
    ]

let wave5 n =
  let particles = 100_000 in
  let ex = arr "EX" [ n; n ] and ey = arr "EY" [ n; n ] in
  let px = arr "PX" [ particles ] and py = arr "PY" [ particles ] in
  let cell = Det_random.table ~seed:57 ~n:particles ~bound:(n * n) in
  let flat_ex = arr "FEX" [ n * n ] and flat_ey = arr "FEY" [ n * n ] in
  let i = v "i" and j = v "j" and p = v "p" in
  program (Printf.sprintf "wave5_%d" n)
    [ ex; ey; px; py; flat_ex; flat_ey ]
    [
      (* field solve: stencil on E *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:4 (w "EX" [ i; j ])
            [ r "EX" [ i; j ]; r "EY" [ i; j ]; r "EY" [ i -! 1; j ]; r "EY" [ i; j -! 1 ] ];
        ];
      (* particle push: gather fields at particle cells *)
      nest
        [ loop "p" 0 (particles - 1) ]
        [
          Stmt.make ~flops:6
            [
              r "PX" [ p ]; r "PY" [ p ];
              rg "FEX" cell p; rg "FEY" cell p;
              w "PX" [ p ]; w "PY" [ p ];
            ];
        ];
    ]

let fpppp n =
  (* Many small dense blocks with almost no cross-block reuse. *)
  let blocks = n in
  let bsize = 16 in
  let f = arr "F" [ bsize; bsize; blocks ] and gout = arr "G" [ bsize; blocks ] in
  let b = v "b" and i = v "i" and j = v "j" in
  program (Printf.sprintf "fpppp%d" n) [ f; gout ]
    [
      nest
        [ loop "b" 0 (blocks - 1); loop "j" 0 (bsize - 1); loop "i" 0 (bsize - 1) ]
        [
          asn ~flops:2 (w "G" [ i; b ])
            [ r "G" [ i; b ]; r "F" [ i; j; b ] ];
        ];
    ]
