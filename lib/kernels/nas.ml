open Mlc_ir
open Build

let bt n =
  (* The BT structure: 5-component solution and residual fields (the
     first, unit-stride dimension holds the components, as in the NAS
     source's U(5,I,J,K)), a compute_rhs-style stencil, and three
     directional block solves carrying a recurrence per direction. *)
  let uu = arr "U" [ 5; n; n; n ]
  and rhs = arr "RHS" [ 5; n; n; n ]
  and lhs = arr "LHS" [ 5; n; n; n ] in
  let m = v "m" and i = v "i" and j = v "j" and k = v "k" in
  let compute_rhs =
    nest
      [
        loop "k" 1 (n - 2); loop "j" 1 (n - 2); loop "i" 1 (n - 2);
        loop "m" 0 4;
      ]
      [
        asn ~flops:7 (w "RHS" [ m; i; j; k ])
          [
            r "U" [ m; i; j; k ];
            r "U" [ m; i -! 1; j; k ]; r "U" [ m; i +! 1; j; k ];
            r "U" [ m; i; j -! 1; k ]; r "U" [ m; i; j +! 1; k ];
            r "U" [ m; i; j; k -! 1 ]; r "U" [ m; i; j; k +! 1 ];
          ];
      ]
  in
  let sweep var lo_shift =
    let shifted e = match lo_shift with `X -> [ m; e; j; k ] | `Y -> [ m; i; e; k ] | `Z -> [ m; i; j; e ] in
    let loops =
      match lo_shift with
      | `X -> [ loop "k" 0 (n - 1); loop "j" 0 (n - 1); loop "i" 1 (n - 1); loop "m" 0 4 ]
      | `Y -> [ loop "k" 0 (n - 1); loop "j" 1 (n - 1); loop "i" 0 (n - 1); loop "m" 0 4 ]
      | `Z -> [ loop "k" 1 (n - 1); loop "j" 0 (n - 1); loop "i" 0 (n - 1); loop "m" 0 4 ]
    in
    nest loops
      [
        asn ~flops:6 (w "RHS" [ m; i; j; k ])
          [
            r "RHS" [ m; i; j; k ];
            r "LHS" [ m; i; j; k ];
            r "RHS" (shifted (var -! 1));
            r "U" [ m; i; j; k ];
          ];
      ]
  in
  let add_update =
    nest
      [ loop "k" 0 (n - 1); loop "j" 0 (n - 1); loop "i" 0 (n - 1); loop "m" 0 4 ]
      [ asn ~flops:1 (w "U" [ m; i; j; k ]) [ r "U" [ m; i; j; k ]; r "RHS" [ m; i; j; k ] ] ]
  in
  program (Printf.sprintf "appbt%d" n) [ uu; rhs; lhs ]
    [ compute_rhs; sweep i `X; sweep j `Y; sweep k `Z; add_update ]

let lu n =
  (* SSOR over 5-component fields: residual (rhs) computation, the lower
     (blts) and upper (buts) triangular sweeps with 3D recurrences, and
     the solution update — the four phases of APPLU's iteration. *)
  let uu = arr "U" [ 5; n; n; n ] and rsd = arr "RSD" [ 5; n; n; n ] in
  let m = v "m" and i = v "i" and j = v "j" and k = v "k" in
  let rhs =
    nest
      [ loop "k" 1 (n - 2); loop "j" 1 (n - 2); loop "i" 1 (n - 2); loop "m" 0 4 ]
      [
        asn ~flops:6 (w "RSD" [ m; i; j; k ])
          [
            r "U" [ m; i; j; k ];
            r "U" [ m; i -! 1; j; k ]; r "U" [ m; i +! 1; j; k ];
            r "U" [ m; i; j -! 1; k ]; r "U" [ m; i; j +! 1; k ];
          ];
      ]
  in
  let blts =
    nest
      [ loop "k" 1 (n - 1); loop "j" 1 (n - 1); loop "i" 1 (n - 1); loop "m" 0 4 ]
      [
        asn ~flops:6 (w "RSD" [ m; i; j; k ])
          [
            r "RSD" [ m; i; j; k ];
            r "RSD" [ m; i -! 1; j; k ]; r "RSD" [ m; i; j -! 1; k ];
            r "RSD" [ m; i; j; k -! 1 ]; r "U" [ m; i; j; k ];
          ];
      ]
  in
  let buts =
    nest
      [
        Loop.make ~step:(-1) "k" ~lo:(c (n - 2)) ~hi:(c 0);
        Loop.make ~step:(-1) "j" ~lo:(c (n - 2)) ~hi:(c 0);
        Loop.make ~step:(-1) "i" ~lo:(c (n - 2)) ~hi:(c 0);
        loop "m" 0 4;
      ]
      [
        asn ~flops:6 (w "RSD" [ m; i; j; k ])
          [
            r "RSD" [ m; i; j; k ];
            r "RSD" [ m; i +! 1; j; k ]; r "RSD" [ m; i; j +! 1; k ];
            r "RSD" [ m; i; j; k +! 1 ]; r "U" [ m; i; j; k ];
          ];
      ]
  in
  let update =
    nest
      [ loop "k" 0 (n - 1); loop "j" 0 (n - 1); loop "i" 0 (n - 1); loop "m" 0 4 ]
      [ asn ~flops:2 (w "U" [ m; i; j; k ]) [ r "U" [ m; i; j; k ]; r "RSD" [ m; i; j; k ] ] ]
  in
  program (Printf.sprintf "applu%d" n) [ uu; rsd ] [ rhs; blts; buts; update ]

let sp n =
  (* Scalar-pentadiagonal: five-point recurrences per direction, plus the
     1D metric arrays (CV, RHON style) the real code factors per line. *)
  let uu = arr "U" [ n; n; n ] and rhs = arr "RHS" [ n; n; n ] in
  let cv = arr "CV" [ n ] and rhon = arr "RHON" [ n ] in
  let i = v "i" and j = v "j" and k = v "k" in
  let line_sweep axis =
    match axis with
    | `X ->
        nest
          [ loop "k" 0 (n - 1); loop "j" 0 (n - 1); loop "i" 2 (n - 3) ]
          [
            asn ~flops:10 (w "RHS" [ i; j; k ])
              [
                r "RHS" [ i; j; k ]; r "CV" [ i ]; r "RHON" [ i ];
                r "U" [ i -! 2; j; k ]; r "U" [ i -! 1; j; k ];
                r "U" [ i; j; k ]; r "U" [ i +! 1; j; k ]; r "U" [ i +! 2; j; k ];
              ];
          ]
    | `Y ->
        nest
          [ loop "k" 0 (n - 1); loop "j" 2 (n - 3); loop "i" 0 (n - 1) ]
          [
            asn ~flops:8 (w "RHS" [ i; j; k ])
              [
                r "RHS" [ i; j; k ];
                r "U" [ i; j -! 2; k ]; r "U" [ i; j -! 1; k ];
                r "U" [ i; j; k ]; r "U" [ i; j +! 1; k ]; r "U" [ i; j +! 2; k ];
              ];
          ]
    | `Z ->
        nest
          [ loop "k" 2 (n - 3); loop "j" 0 (n - 1); loop "i" 0 (n - 1) ]
          [
            asn ~flops:8 (w "RHS" [ i; j; k ])
              [
                r "RHS" [ i; j; k ];
                r "U" [ i; j; k -! 2 ]; r "U" [ i; j; k -! 1 ];
                r "U" [ i; j; k ]; r "U" [ i; j; k +! 1 ]; r "U" [ i; j; k +! 2 ];
              ];
          ]
  in
  program (Printf.sprintf "appsp%d" n) [ uu; rhs; cv; rhon ]
    [ line_sweep `X; line_sweep `Y; line_sweep `Z ]

let buk n =
  let buckets = 1024 in
  let keys = Det_random.table ~seed:7 ~n ~bound:buckets in
  let rank = Det_random.permutation ~seed:13 ~n in
  let key = arr ~elem_size:4 "KEY" [ n ]
  and count = arr ~elem_size:4 "COUNT" [ buckets ]
  and out = arr ~elem_size:4 "OUT" [ n ] in
  let i = v "i" and b = v "b" in
  program (Printf.sprintf "buk%d" n) [ key; count; out ]
    [
      (* counting pass *)
      nest
        [ loop "i" 0 (n - 1) ]
        [
          Stmt.make ~flops:1
            [ r "KEY" [ i ]; rg "COUNT" keys i; wg "COUNT" keys i ];
        ];
      (* prefix sum over buckets *)
      nest
        [ loop "b" 1 (buckets - 1) ]
        [ asn ~flops:1 (w "COUNT" [ b ]) [ r "COUNT" [ b ]; r "COUNT" [ b -! 1 ] ] ];
      (* permutation pass *)
      nest
        [ loop "i" 0 (n - 1) ]
        [ Stmt.make ~flops:1 [ r "KEY" [ i ]; wg "OUT" rank i ] ];
    ]

let cgm n =
  let row_nnz = 8 in
  (* y = A x with [row_nnz] nonzeros per row, flattened over nnz. *)
  let nnz = n * row_nnz in
  let colidx_table = Det_random.table ~seed:31 ~n:nnz ~bound:n in
  let a = arr "A" [ nnz ]
  and x = arr "X" [ n ]
  and y = arr "Y" [ n ]
  and colidx = arr ~elem_size:4 "COLIDX" [ nnz ] in
  let e = v "e" in
  let row = Array.make nnz 0 in
  for e = 0 to nnz - 1 do
    row.(e) <- e / row_nnz
  done;
  program (Printf.sprintf "cgm%d" n) [ a; x; y; colidx ]
    [
      nest
        [ loop "e" 0 (nnz - 1) ]
        [
          Stmt.make ~flops:2
            [ r "A" [ e ]; r "COLIDX" [ e ]; rg "X" colidx_table e; wg "Y" row e ];
        ];
    ]

let embar n =
  (* Monte Carlo: a tiny constant table and histogram counters; nearly
     all references hit — the "nothing to optimize" end of Figure 9. *)
  let gauss = arr "GAUSS" [ 64 ] and q = arr "Q" [ 10 ] in
  let hist = Det_random.table ~seed:41 ~n:4096 ~bound:10 in
  let tab = Det_random.table ~seed:43 ~n:4096 ~bound:64 in
  let i = v "i" in
  (* Iteration [k] reads entry [k mod 4096] of each table; the histogram
     index is built once and shared by the read and the write. *)
  let idx_of t =
    let a = Array.make n 0 in
    for k = 0 to n - 1 do
      a.(k) <- t.(k land 4095)
    done;
    a
  in
  let q_idx = idx_of hist in
  program (Printf.sprintf "embar%d" n) [ gauss; q ]
    [
      nest
        [ loop "i" 0 (n - 1) ]
        [ Stmt.make ~flops:12 [ rg "GAUSS" (idx_of tab) i; rg "Q" q_idx i; wg "Q" q_idx i ] ];
    ]

let fftpde n =
  (* Butterfly passes with stride-2 access plus a transpose-flavoured
     pass: the classic power-of-two conflict generator. *)
  let re = arr "RE" [ n ] and im = arr "IM" [ n ] in
  let half = n / 2 in
  let i = v "i" and j = v "j" in
  let m = int_of_float (sqrt (float_of_int n)) in
  let plane_re = arr "PRE" [ m; m ] and plane_im = arr "PIM" [ m; m ] in
  program (Printf.sprintf "fftpde%d" n)
    [ re; im; plane_re; plane_im ]
    [
      nest
        [ loop "i" 0 (half - 1) ]
        [
          asn ~flops:4 (w "RE" [ i ** 2 ])
            [ r "RE" [ i ** 2 ]; r "RE" [ (i ** 2) +! 1 ]; r "IM" [ i ** 2 ] ];
          asn ~flops:4 (w "IM" [ (i ** 2) +! 1 ])
            [ r "IM" [ i ** 2 ]; r "IM" [ (i ** 2) +! 1 ]; r "RE" [ (i ** 2) +! 1 ] ];
        ];
      (* transpose-like pass across the plane views *)
      nest
        [ loop "j" 0 (m - 1); loop "i" 0 (m - 1) ]
        [ asn ~flops:0 (w "PRE" [ i; j ]) [ r "PIM" [ j; i ] ] ];
    ]

let mgrid n =
  let fine = arr "UF" [ n; n; n ]
  and res = arr "R" [ n; n; n ]
  and rhs = arr "V" [ n; n; n ]
  and coarse = arr "UC" [ n / 2; n / 2; n / 2 ] in
  let i = v "i" and j = v "j" and k = v "k" in
  let residual =
    nest
      [ loop "k" 1 (n - 2); loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
      [
        asn ~flops:8 (w "R" [ i; j; k ])
          [
            r "V" [ i; j; k ]; r "UF" [ i; j; k ];
            r "UF" [ i -! 1; j; k ]; r "UF" [ i +! 1; j; k ];
            r "UF" [ i; j -! 1; k ]; r "UF" [ i; j +! 1; k ];
            r "UF" [ i; j; k -! 1 ]; r "UF" [ i; j; k +! 1 ];
          ];
      ]
  in
  program (Printf.sprintf "mgrid%d" n) [ fine; res; rhs; coarse ]
    [
      residual;
      (* smooth: 7-point stencil *)
      nest
        [ loop "k" 1 (n - 2); loop "j" 1 (n - 2); loop "i" 1 (n - 2) ]
        [
          asn ~flops:7 (w "UF" [ i; j; k ])
            [
              r "R" [ i; j; k ];
              r "UF" [ i -! 1; j; k ]; r "UF" [ i +! 1; j; k ];
              r "UF" [ i; j -! 1; k ]; r "UF" [ i; j +! 1; k ];
              r "UF" [ i; j; k -! 1 ]; r "UF" [ i; j; k +! 1 ];
            ];
        ];
      (* restrict to the coarse grid (injection at even points) *)
      nest
        [
          loop "k" 0 ((n / 2) - 1);
          loop "j" 0 ((n / 2) - 1);
          loop "i" 0 ((n / 2) - 1);
        ]
        [
          asn ~flops:1 (w "UC" [ i; j; k ])
            [ r "R" [ i ** 2; j ** 2; k ** 2 ] ];
        ];
      (* prolongate back *)
      nest
        [
          loop "k" 0 ((n / 2) - 1);
          loop "j" 0 ((n / 2) - 1);
          loop "i" 0 ((n / 2) - 1);
        ]
        [
          asn ~flops:1 (w "UF" [ i ** 2; j ** 2; k ** 2 ])
            [ r "UF" [ i ** 2; j ** 2; k ** 2 ]; r "UC" [ i; j; k ] ];
        ];
    ]
