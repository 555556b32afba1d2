open Mlc_ir
open Build

let dot n =
  let x = arr "X" [ n ] and z = arr "Z" [ n ] in
  let k = v "k" in
  program (Printf.sprintf "dot%d" n) [ x; z ]
    [
      nest
        [ loop "k" 0 (n - 1) ]
        [ Stmt.make ~flops:2 [ r "Z" [ k ]; r "X" [ k ] ] ];
    ]

let adi n =
  (* Two alternating-direction sweeps: a row sweep carrying a recurrence
     on the first index, then a column sweep carrying it on the second.
     U is the unknown; A, B hold coefficients per direction. *)
  let u = arr "U" [ n; n ] and a = arr "A" [ n; n ] and b = arr "B" [ n; n ] in
  let i = v "i" and j = v "j" in
  program (Printf.sprintf "adi%d" n) [ u; a; b ]
    [
      nest
        [ loop "j" 0 (n - 1); loop "i" 1 (n - 1) ]
        [
          asn ~flops:2 (w "U" [ i; j ])
            [ r "U" [ i; j ]; r "A" [ i; j ]; r "U" [ i -! 1; j ] ];
        ];
      nest
        [ loop "j" 1 (n - 1); loop "i" 0 (n - 1) ]
        [
          asn ~flops:2 (w "U" [ i; j ])
            [ r "U" [ i; j ]; r "B" [ i; j ]; r "U" [ i; j -! 1 ] ];
        ];
    ]

let erle n =
  (* Erlebacher fragment: sweeps along the third dimension.  A plane of a
     64x64x64 double array is 32K — a multiple of the 16K L1 — so the
     k/k-1 plane pair of the same array collides without intra-variable
     padding. *)
  let f = arr "F" [ n; n; n ]
  and g = arr "G" [ n; n; n ]
  and d = arr "D" [ n; n; n ] in
  let i = v "i" and j = v "j" and k = v "k" in
  program (Printf.sprintf "erle%d" n) [ f; g; d ]
    [
      (* forward elimination along k *)
      nest
        [ loop "k" 1 (n - 1); loop "j" 0 (n - 1); loop "i" 0 (n - 1) ]
        [
          asn ~flops:2 (w "F" [ i; j; k ])
            [ r "F" [ i; j; k ]; r "G" [ i; j; k ]; r "F" [ i; j; k -! 1 ] ];
        ];
      (* back substitution *)
      nest
        [
          Loop.make ~step:(-1) "k" ~lo:(c (n - 2)) ~hi:(c 0);
          loop "j" 0 (n - 1);
          loop "i" 0 (n - 1);
        ]
        [
          asn ~flops:2 (w "F" [ i; j; k ])
            [ r "F" [ i; j; k ]; r "D" [ i; j; k ]; r "F" [ i; j; k +! 1 ] ];
        ];
    ]

let expl n =
  (* Livermore loop 18: 2D explicit hydrodynamics, transcribed with the
     row index j first (unit stride) and the column index k outer.  The
     Fortran ranges j,k = 2..N-1 become 1..n-2. *)
  let mk name = arr name [ n; n ] in
  let za = mk "ZA" and zb = mk "ZB" and zm = mk "ZM" in
  let zp = mk "ZP" and zq = mk "ZQ" and zr = mk "ZR" in
  let zu = mk "ZU" and zv = mk "ZV" and zz = mk "ZZ" in
  let j = v "j" and k = v "k" in
  let n75 =
    nest
      [ loop "k" 1 (n - 2); loop "j" 1 (n - 2) ]
      [
        asn ~flops:8 (w "ZA" [ j; k ])
          [
            r "ZP" [ j -! 1; k +! 1 ]; r "ZQ" [ j -! 1; k +! 1 ];
            r "ZP" [ j -! 1; k ]; r "ZQ" [ j -! 1; k ];
            r "ZR" [ j; k ]; r "ZR" [ j -! 1; k ];
            r "ZM" [ j -! 1; k ]; r "ZM" [ j -! 1; k +! 1 ];
          ];
        asn ~flops:8 (w "ZB" [ j; k ])
          [
            r "ZP" [ j -! 1; k ]; r "ZQ" [ j -! 1; k ];
            r "ZP" [ j; k ]; r "ZQ" [ j; k ];
            r "ZR" [ j; k ]; r "ZR" [ j; k -! 1 ];
            r "ZM" [ j; k ]; r "ZM" [ j -! 1; k ];
          ];
      ]
  in
  let n76 =
    nest
      [ loop "k" 1 (n - 2); loop "j" 1 (n - 2) ]
      [
        asn ~flops:13 (w "ZU" [ j; k ])
          [
            r "ZU" [ j; k ];
            r "ZA" [ j; k ]; r "ZZ" [ j; k ]; r "ZZ" [ j +! 1; k ];
            r "ZA" [ j -! 1; k ]; r "ZZ" [ j -! 1; k ];
            r "ZB" [ j; k ]; r "ZZ" [ j; k -! 1 ];
            r "ZB" [ j; k +! 1 ]; r "ZZ" [ j; k +! 1 ];
          ];
        asn ~flops:13 (w "ZV" [ j; k ])
          [
            r "ZV" [ j; k ];
            r "ZA" [ j; k ]; r "ZR" [ j; k ]; r "ZR" [ j +! 1; k ];
            r "ZA" [ j -! 1; k ]; r "ZR" [ j -! 1; k ];
            r "ZB" [ j; k ]; r "ZR" [ j; k -! 1 ];
            r "ZB" [ j; k +! 1 ]; r "ZR" [ j; k +! 1 ];
          ];
      ]
  in
  let n77 =
    nest
      [ loop "k" 1 (n - 2); loop "j" 1 (n - 2) ]
      [
        asn ~flops:2 (w "ZR" [ j; k ]) [ r "ZR" [ j; k ]; r "ZU" [ j; k ] ];
        asn ~flops:2 (w "ZZ" [ j; k ]) [ r "ZZ" [ j; k ]; r "ZV" [ j; k ] ];
      ]
  in
  program
    (Printf.sprintf "expl%d" n)
    [ za; zb; zm; zp; zq; zr; zu; zv; zz ]
    [ n75; n76; n77 ]

let irr edges =
  let nodes = max 16 (edges / 5) in
  let left = Det_random.table ~seed:11 ~n:edges ~bound:nodes in
  let right = Det_random.table ~seed:23 ~n:edges ~bound:nodes in
  let x = arr "X" [ nodes ]
  and y = arr "Y" [ nodes ]
  and il = arr ~elem_size:4 "IL" [ edges ]
  and ir = arr ~elem_size:4 "IR" [ edges ] in
  let e = v "e" in
  program
    (Printf.sprintf "irr%dk" (edges / 1000))
    [ x; y; il; ir ]
    [
      nest
        [ loop "e" 0 (edges - 1) ]
        [
          (* Load both endpoint indices, then relax across the edge. *)
          Stmt.make ~flops:3
            [
              r "IL" [ e ];
              r "IR" [ e ];
              rg "Y" left e;
              rg "Y" right e;
              wg "X" left e;
            ];
        ];
    ]

let jacobi n =
  let a = arr "A" [ n; n ] and b = arr "B" [ n; n ] in
  let i = v "i" and j = v "j" in
  program (Printf.sprintf "jacobi%d" n) [ a; b ]
    [
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:4 (w "A" [ i; j ])
            [
              r "B" [ i -! 1; j ]; r "B" [ i +! 1; j ];
              r "B" [ i; j -! 1 ]; r "B" [ i; j +! 1 ];
            ];
        ];
      (* copy back + convergence test *)
      nest
        [ loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [ asn ~flops:1 (w "B" [ i; j ]) [ r "A" [ i; j ]; r "B" [ i; j ] ] ];
    ]

let linpackd n =
  let a = arr "A" [ n; n ] in
  let i = v "i" and j = v "j" and k = v "k" in
  program
    (Printf.sprintf "linpackd%d" n)
    [ a ]
    [
      (* Right-looking LU: the pivot search reads column k, then the rank-1
         update touches the trailing submatrix. *)
      nest
        [ loop "k" 0 (n - 2); loop_e "i" (v "k" +! 1) (c (n - 1)) ]
        [ Stmt.make ~flops:1 [ r "A" [ i; k ] ] ];
      nest
        [
          loop "k" 0 (n - 2);
          loop_e "j" (v "k" +! 1) (c (n - 1));
          loop_e "i" (v "k" +! 1) (c (n - 1));
        ]
        [
          asn ~flops:2 (w "A" [ i; j ])
            [ r "A" [ i; j ]; r "A" [ i; k ]; r "A" [ k; j ] ];
        ];
    ]

let shal n =
  let mk name = arr name [ n; n ] in
  let u = mk "U" and vv = mk "V" and p = mk "P" in
  let unew = mk "UNEW" and vnew = mk "VNEW" and pnew = mk "PNEW" in
  let uold = mk "UOLD" and vold = mk "VOLD" and pold = mk "POLD" in
  let cu = mk "CU" and cv = mk "CV" and z = mk "Z" and h = mk "H" in
  let i = v "i" and j = v "j" in
  let calc1 =
    nest
      [ loop "j" 0 (n - 2); loop "i" 0 (n - 2) ]
      [
        asn ~flops:2 (w "CU" [ i +! 1; j ])
          [ r "P" [ i +! 1; j ]; r "P" [ i; j ]; r "U" [ i +! 1; j ] ];
        asn ~flops:2 (w "CV" [ i; j +! 1 ])
          [ r "P" [ i; j +! 1 ]; r "P" [ i; j ]; r "V" [ i; j +! 1 ] ];
        asn ~flops:8 (w "Z" [ i +! 1; j +! 1 ])
          [
            r "V" [ i +! 1; j +! 1 ]; r "V" [ i; j +! 1 ];
            r "U" [ i +! 1; j +! 1 ]; r "U" [ i +! 1; j ];
            r "P" [ i; j ]; r "P" [ i +! 1; j ];
            r "P" [ i +! 1; j +! 1 ]; r "P" [ i; j +! 1 ];
          ];
        asn ~flops:9 (w "H" [ i; j ])
          [
            r "P" [ i; j ];
            r "U" [ i +! 1; j ]; r "U" [ i; j ];
            r "V" [ i; j +! 1 ]; r "V" [ i; j ];
          ];
      ]
  in
  let calc2 =
    nest
      [ loop "j" 0 (n - 2); loop "i" 0 (n - 2) ]
      [
        asn ~flops:8 (w "UNEW" [ i +! 1; j ])
          [
            r "UOLD" [ i +! 1; j ];
            r "Z" [ i +! 1; j +! 1 ]; r "Z" [ i +! 1; j ];
            r "CV" [ i +! 1; j +! 1 ]; r "CV" [ i; j +! 1 ];
            r "CV" [ i; j ]; r "CV" [ i +! 1; j ];
            r "H" [ i +! 1; j ]; r "H" [ i; j ];
          ];
        asn ~flops:8 (w "VNEW" [ i; j +! 1 ])
          [
            r "VOLD" [ i; j +! 1 ];
            r "Z" [ i +! 1; j +! 1 ]; r "Z" [ i; j +! 1 ];
            r "CU" [ i +! 1; j +! 1 ]; r "CU" [ i; j +! 1 ];
            r "CU" [ i; j ]; r "CU" [ i +! 1; j ];
            r "H" [ i; j +! 1 ]; r "H" [ i; j ];
          ];
        asn ~flops:4 (w "PNEW" [ i; j ])
          [
            r "POLD" [ i; j ];
            r "CU" [ i +! 1; j ]; r "CU" [ i; j ];
            r "CV" [ i; j +! 1 ]; r "CV" [ i; j ];
          ];
      ]
  in
  let calc3 =
    nest
      [ loop "j" 0 (n - 1); loop "i" 0 (n - 1) ]
      [
        asn ~flops:4 (w "UOLD" [ i; j ])
          [ r "U" [ i; j ]; r "UNEW" [ i; j ]; r "UOLD" [ i; j ] ];
        asn ~flops:4 (w "VOLD" [ i; j ])
          [ r "V" [ i; j ]; r "VNEW" [ i; j ]; r "VOLD" [ i; j ] ];
        asn ~flops:4 (w "POLD" [ i; j ])
          [ r "P" [ i; j ]; r "PNEW" [ i; j ]; r "POLD" [ i; j ] ];
        asn ~flops:0 (w "U" [ i; j ]) [ r "UNEW" [ i; j ] ];
        asn ~flops:0 (w "V" [ i; j ]) [ r "VNEW" [ i; j ] ];
        asn ~flops:0 (w "P" [ i; j ]) [ r "PNEW" [ i; j ] ];
      ]
  in
  program
    (Printf.sprintf "shal%d" n)
    [ u; vv; p; unew; vnew; pnew; uold; vold; pold; cu; cv; z; h ]
    [ calc1; calc2; calc3 ]
