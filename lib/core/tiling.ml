open Mlc_ir

let matmul n =
  let open Build in
  let a = arr "A" [ n; n ] and b = arr "B" [ n; n ] and cm = arr "C" [ n; n ] in
  let i = v "I" and j = v "J" and k = v "K" in
  program
    (Printf.sprintf "matmul-%d" n)
    [ a; b; cm ]
    [
      nest
        [ loop "J" 0 (n - 1); loop "K" 0 (n - 1); loop "I" 0 (n - 1) ]
        [ asn ~flops:2 (w "C" [ i; j ]) [ r "C" [ i; j ]; r "A" [ i; k ]; r "B" [ k; j ] ] ];
    ]

let tiled_matmul ~n ~h ~w:width =
  if h < 1 || width < 1 then invalid_arg "Tiling.tiled_matmul: tile sides must be >= 1";
  let p = matmul n in
  let open Build in
  (* Figure 8: strip loops KK and II outermost, K and I clamped at N. *)
  let element var strip side =
    Loop.make var ~lo:(v strip) ~hi:(v strip +! (side - 1)) ~hi_min:(c (n - 1))
  in
  let tiled =
    nest
      [
        Loop.make ~step:width "KK" ~lo:(c 0) ~hi:(c (n - 1));
        Loop.make ~step:h "II" ~lo:(c 0) ~hi:(c (n - 1));
        loop "J" 0 (n - 1);
        element "K" "KK" width;
        element "I" "II" h;
      ]
      (List.hd p.Program.nests).Nest.body
  in
  let name = Printf.sprintf "matmul-%d-tiled-%dx%d" n h width in
  { p with Program.name; nests = [ tiled ] }
