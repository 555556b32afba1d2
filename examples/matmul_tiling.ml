(* Tiling matrix multiplication for a multi-level cache (Section 5 /
   Figure 13): eucPad-style tile selection, the no-L2-interference
   property, simulated MFLOPS per policy, and a real-hardware timing of
   the same variants.

     dune exec examples/matmul_tiling.exe *)

open Mlc_ir
module Cs = Mlc_cachesim
module L = Locality
module N = Mlc_native

let machine = Cs.Machine.ultrasparc

let () =
  let n = 300 in
  let elem = 8 in
  let l1 = Cs.Machine.s1 machine in
  let l2 = Cs.Machine.level_size machine 1 in

  Printf.printf "matmul %dx%d doubles (%.0fK per matrix; L1 %dK, L2 %dK)\n\n" n n
    (float_of_int (n * n * elem) /. 1024.0)
    (l1 / 1024) (l2 / 1024);

  (* 1. Tile selection per policy. *)
  let tiles = L.Tile_size.policy_tiles ~l1 ~l2 ~elem n in
  List.iter
    (fun (label, t) ->
      Printf.printf "%-5s tile: %3dx%-3d (%5.1fK footprint)%s\n" label
        t.L.Tile_size.height t.L.Tile_size.width
        (float_of_int (L.Tile_size.footprint_bytes ~elem t) /. 1024.0)
        (if
           L.Tile_size.no_l2_interference ~s1_elems:(l1 / elem) ~k:(l2 / l1)
             ~col_elems:n t
         then "  [no L2 self-interference]"
         else ""))
    tiles;

  (* 2. Simulated MFLOPS (the Figure 13 series at one size). *)
  print_newline ();
  let sim p =
    let r = Interp.run machine (Layout.initial p) p in
    r.Interp.mflops
  in
  Printf.printf "%-5s %8.2f simulated MFLOPS\n" "orig" (sim (L.Tiling.matmul n));
  List.iter
    (fun (label, t) ->
      Printf.printf "%-5s %8.2f simulated MFLOPS\n" label
        (sim
           (L.Tiling.tiled_matmul ~n ~h:t.L.Tile_size.height
              ~w:t.L.Tile_size.width)))
    tiles;

  (* 3. The same variants really executed (wall clock, this machine). *)
  print_newline ();
  let a = N.Nat_matmul.create n and b = N.Nat_matmul.create n in
  N.Nat_matmul.random_fill ~seed:1 a;
  N.Nat_matmul.random_fill ~seed:2 b;
  let time f =
    let c = N.Nat_matmul.create n in
    let reps = 3 in
    let t0 = Sys.time () in
    for _ = 1 to reps do
      f c
    done;
    let dt = (Sys.time () -. t0) /. float_of_int reps in
    N.Nat_matmul.mflop_count n /. dt
  in
  Printf.printf "%-5s %8.0f real MFLOPS (this machine)\n" "orig"
    (time (fun c -> N.Nat_matmul.multiply ~c ~a ~b));
  List.iter
    (fun (label, t) ->
      Printf.printf "%-5s %8.0f real MFLOPS (this machine)\n" label
        (time (fun c ->
             N.Nat_matmul.multiply_tiled ~h:t.L.Tile_size.height
               ~w:t.L.Tile_size.width ~c ~a ~b)))
    tiles
