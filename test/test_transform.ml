(* Tests for the loop transformations: permutation (and Section 2's
   every-level claim), strip-mining, tiling (+ tile-size selection), and
   fusion. *)

open Mlc_ir
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* --- Permute ------------------------------------------------------------ *)

let test_permute_figure1 () =
  let p = K.Paper_examples.figure1 ~n:8 ~m:8 in
  let nest = List.hd p.Program.nests in
  let permuted = L.Permute.apply nest [ "i"; "j" ] in
  Alcotest.(check (list string)) "order" [ "i"; "j" ] (Nest.vars permuted);
  (* same multiset of addresses *)
  let layout = Layout.initial p in
  let p' = { p with Program.nests = [ permuted ] } in
  Alcotest.(check (array int)) "same accesses"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p')

let test_permute_rejects_non_permutation () =
  let p = K.Paper_examples.figure1 ~n:8 ~m:8 in
  let nest = List.hd p.Program.nests in
  (match L.Permute.apply nest [ "i"; "i" ] with
  | exception L.Permute.Illegal _ -> ()
  | _ -> Alcotest.fail "expected Illegal");
  match L.Permute.apply nest [ "i" ] with
  | exception L.Permute.Illegal _ -> ()
  | _ -> Alcotest.fail "expected Illegal"

let test_permute_rejects_dependence_violation () =
  let open Build in
  let a = arr "A" [ 8; 8 ] in
  let i = v "i" and j = v "j" in
  let nest_skewed =
    nest [ loop "i" 1 7; loop "j" 0 6 ]
      [ asn (w "A" [ i; j ]) [ r "A" [ i -! 1; j +! 1 ] ] ]
  in
  let p = program "skew" [ a ] [ nest_skewed ] in
  ignore p;
  match L.Permute.apply nest_skewed [ "j"; "i" ] with
  | exception L.Permute.Illegal _ -> ()
  | _ -> Alcotest.fail "expected Illegal"

let test_permute_optimize_picks_unit_stride () =
  let p = K.Paper_examples.figure1 ~n:64 ~m:64 in
  let layout = Layout.initial p in
  let nest = List.hd p.Program.nests in
  let best = L.Permute.optimize layout ~line:32 nest in
  Alcotest.(check (list string)) "j innermost" [ "i"; "j" ] (Nest.vars best)

(* --- Section 2: one transformation helps every level -------------------- *)

(* Section 2 argues that transformations which shorten reuse distance
   (loop permutation, or transposing the data instead) need no
   multi-level awareness: they improve locality at every cache level at
   once.  Pinned on Figure 1 and on the permutation the compiler ships.
   The claim is "never worse anywhere, better in total", not "better at
   every level": on the alpha at n = 1024, B and one column of A are both
   8 KB, the size of its L1, so in the permuted order they map onto the
   same sets and ping-pong -- the L1 count stays at 2097152.  Removing
   that conflict is the job of padding (Section 3), not of permutation. *)
let test_section2_every_level () =
  List.iter
    (fun (mname, machine) ->
      List.iter
        (fun n ->
          let misses p = (Interp.run machine (Layout.initial p) p).Interp.misses in
          let orig = misses (K.Paper_examples.figure1 ~n ~m:n) in
          let sum = List.fold_left ( + ) 0 in
          List.iter
            (fun (alt, p) ->
              let m = misses p in
              let label = Printf.sprintf "%s n=%d %s" mname n alt in
              check_bool (label ^ ": no level worse") true
                (List.for_all2 ( <= ) m orig);
              check_bool (label ^ ": fewer misses in total") true (sum m < sum orig))
            [
              ("permuted", K.Paper_examples.figure1_permuted ~n ~m:n);
              ("transposed", K.Paper_examples.figure1_transposed ~n ~m:n);
            ];
          let loops p = List.map (fun nest -> nest.Nest.loops) p.Program.nests in
          let optimized =
            (L.Compiler.optimize ~passes:[ L.Pass.permute ] machine
               (K.Paper_examples.figure1 ~n ~m:n))
              .L.Compiler.program
          in
          check_bool
            (Printf.sprintf "%s n=%d: the permute pass yields figure1_permuted" mname n)
            true
            (loops optimized = loops (K.Paper_examples.figure1_permuted ~n ~m:n)))
        [ 64; 256; 1024 ])
    [ ("ultrasparc", Mlc_cachesim.Machine.ultrasparc);
      ("alpha", Mlc_cachesim.Machine.alpha21164) ]

(* --- Strip-mine / Tiling -------------------------------------------------- *)

let test_strip_mine_exact_cover () =
  let open Build in
  let a = arr "A" [ 20 ] in
  let i = v "i" in
  let n1 = nest [ loop "i" 0 19 ] [ asn (w "A" [ i ]) [ r "A" [ i ] ] ] in
  let p = program "sm" [ a ] [ n1 ] in
  let layout = Layout.initial p in
  (* width 7 does not divide 20: the clamp matters *)
  let stripped = L.Strip_mine.apply n1 ~var:"i" ~width:7 ~strip_var:"ii" in
  let p' = { p with Program.nests = [ stripped ] } in
  Alcotest.(check (array int)) "identical access sequence"
    (Interp.trace layout p) (Interp.trace layout p')

let prop_tiling_preserves_accesses =
  QCheck.Test.make ~name:"tiled matmul touches the same multiset of addresses"
    ~count:25
    QCheck.(triple (int_range 4 10) (int_range 1 5) (int_range 1 5))
    (fun (n, h, w) ->
      let orig = L.Tiling.matmul n in
      let tiled = L.Tiling.tiled_matmul ~n ~h ~w in
      let layout = Layout.initial orig in
      Trace_oracle.sorted_trace layout orig = Trace_oracle.sorted_trace layout tiled)

let test_tiled_matmul_shape () =
  let tiled = L.Tiling.tiled_matmul ~n:16 ~h:4 ~w:2 in
  let nest = List.hd tiled.Program.nests in
  Alcotest.(check (list string)) "figure 8 loop order"
    [ "KK"; "II"; "J"; "K"; "I" ] (Nest.vars nest);
  check_int "same flops as untiled" (Program.flop_count (L.Tiling.matmul 16))
    (Program.flop_count tiled)

(* --- Tile size selection --------------------------------------------------- *)

let test_euclid_chain () =
  (* gcd-style remainder chain *)
  Alcotest.(check (list int)) "chain" [ 100; 30; 10 ]
    (L.Tile_size.euclid_chain ~cache_elems:100 ~col_elems:330);
  Alcotest.(check (list int)) "aligned column" [ 128 ]
    (L.Tile_size.euclid_chain ~cache_elems:128 ~col_elems:256)

let test_conflict_free_width () =
  (* cache 64 elems, columns of 48: positions 0,48,32,16 -> with height 16
     all 4 columns tile the cache exactly *)
  check_int "width at h=16" 4
    (L.Tile_size.max_conflict_free_width ~cache_elems:64 ~col_elems:48 ~height:16
       ~max_width:8);
  (* height 17 cannot even fit two columns *)
  check_int "width at h=17" 1
    (L.Tile_size.max_conflict_free_width ~cache_elems:64 ~col_elems:48 ~height:17
       ~max_width:8)

let test_gap_scan_rules () =
  (* a column that is a multiple of the cache repeats position 0 at d = 1:
     a conflict at every height, even 0, so one column is the widest *)
  List.iter
    (fun height ->
      check_int
        (Printf.sprintf "repeated position, height %d" height)
        1
        (L.Tile_size.max_conflict_free_width ~cache_elems:64 ~col_elems:128 ~height
           ~max_width:8))
    [ 0; 1; 64 ];
  check_int "taller than the cache" 0
    (L.Tile_size.max_conflict_free_width ~cache_elems:64 ~col_elems:48 ~height:65
       ~max_width:8);
  check_int "capped at max_width" 3
    (L.Tile_size.max_conflict_free_width ~cache_elems:64 ~col_elems:48 ~height:16
       ~max_width:3)

let prop_gap_scan_matches_oracle =
  QCheck.Test.make ~name:"gap scan = sorted-gap oracle" ~count:(qcheck_count 300)
    QCheck.(
      make
        ~print:(fun (c, col, h, w) ->
          Printf.sprintf "cache=%d col=%d height=%d max_width=%d" c col h w)
        Gen.(
          oneofl [ 256; 2048; 16384; 65536 ] >>= fun cache ->
          int_range 1 2000 >>= fun col ->
          (* small heights admit wide tiles, where the scan runs longest *)
          oneof [ int_range 1 cache; int_range 1 (cache / 64) ] >>= fun height ->
          int_range 0 4096 >|= fun max_width -> (cache, col, height, max_width)))
    (fun (cache_elems, col_elems, height, max_width) ->
      L.Tile_size.max_conflict_free_width ~cache_elems ~col_elems ~height ~max_width
      = Tile_oracle.max_conflict_free_width ~cache_elems ~col_elems ~height
          ~max_width)

(* The tiles the bench harness's fast figure13 and tiles sections select,
   recorded from the sort-and-bisect selection: the four Figure 13
   policies (L1, 2xL1, 4xL1, L2) and euc/LRW/TSS on the L1, as
   (height, width).  The policies are checked both by direct [select]
   calls and through [policy_tiles], the table the bench, [mlc tile] and
   the matmul example print. *)
let pinned_tiles =
  [
    (100, [ (48, 41); (50, 81); (100, 81); (100, 655); (48, 41); (41, 41); (4, 512) ]);
    (172, [ (16, 119); (86, 47); (86, 95); (172, 381); (16, 119); (16, 16); (4, 512) ]);
    (200, [ (48, 41); (64, 64); (100, 81); (200, 327); (48, 41); (41, 41); (8, 256) ]);
    (244, [ (44, 42); (72, 56); (100, 81); (244, 268); (44, 42); (42, 42); (4, 512) ]);
    (300, [ (52, 34); (68, 60); (68, 120); (300, 218); (52, 34); (40, 40); (4, 512) ]);
    (316, [ (152, 13); (62, 66); (68, 120); (316, 207); (152, 13); (13, 13); (4, 512) ]);
    (388, [ (44, 37); (36, 113); (176, 46); (388, 168); (44, 37); (37, 37); (4, 512) ]);
    (400, [ (48, 41); (64, 64); (64, 128); (400, 163); (48, 41); (41, 41); (16, 128) ]);
  ]

let test_pinned_tiles () =
  let elem = 8 and l1 = 16 * 1024 and l2 = 512 * 1024 in
  List.iter
    (fun (n, expected) ->
      let sel ~cache ~cap =
        L.Tile_size.select ~capacity_bytes:cap ~cache_bytes:cache ~elem ~col_elems:n
          ~rows:n ()
      in
      let got =
        [
          sel ~cache:l1 ~cap:l1;
          sel ~cache:l2 ~cap:(2 * l1);
          sel ~cache:l2 ~cap:(4 * l1);
          sel ~cache:l2 ~cap:l2;
          L.Tile_size.select ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n ();
          L.Tile_size.lrw ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n;
          L.Tile_size.tss ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n;
        ]
      in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "tiles at n=%d" n)
        expected
        (List.map (fun (t : L.Tile_size.tile) -> (t.height, t.width)) got);
      Alcotest.(check (list (pair string (pair int int))))
        (Printf.sprintf "policy_tiles at n=%d" n)
        (List.combine [ "L1"; "2xL1"; "4xL1"; "L2" ]
           (List.filteri (fun i _ -> i < 4) expected))
        (List.map
           (fun (label, (t : L.Tile_size.tile)) -> (label, (t.height, t.width)))
           (L.Tile_size.policy_tiles ~l1 ~l2 ~elem n)))
    pinned_tiles

let prop_selected_tiles_conflict_free =
  QCheck.Test.make ~name:"selected tiles have no self-interference" ~count:200
    QCheck.(pair (int_range 65 2000) (int_range 1 4))
    (fun (col, k) ->
      let cache_bytes = 16 * 1024 * k in
      let tile =
        L.Tile_size.select ~cache_bytes ~elem:8 ~col_elems:col ~rows:col ()
      in
      let cache_elems = cache_bytes / 8 in
      tile.L.Tile_size.height >= 1 && tile.L.Tile_size.width >= 1
      && L.Tile_size.max_conflict_free_width ~cache_elems ~col_elems:col
           ~height:tile.L.Tile_size.height ~max_width:tile.L.Tile_size.width
         >= tile.L.Tile_size.width)

let test_alternative_tile_algorithms () =
  let elem = 8 and cache = 16 * 1024 in
  List.iter
    (fun n ->
      let cache_elems = cache / elem in
      let check_tile label (t : L.Tile_size.tile) =
        check_bool
          (Printf.sprintf "%s %dx%d at n=%d conflict-free" label
             t.L.Tile_size.height t.L.Tile_size.width n)
          true
          (t.L.Tile_size.height >= 1 && t.L.Tile_size.width >= 1
          && L.Tile_size.max_conflict_free_width ~cache_elems ~col_elems:n
               ~height:t.L.Tile_size.height ~max_width:t.L.Tile_size.width
             >= t.L.Tile_size.width
          && L.Tile_size.footprint_bytes ~elem t <= cache)
      in
      let lrw = L.Tile_size.lrw ~cache_bytes:cache ~elem ~col_elems:n ~rows:n in
      let tss = L.Tile_size.tss ~cache_bytes:cache ~elem ~col_elems:n ~rows:n in
      check_tile "LRW" lrw;
      check_tile "TSS" tss;
      check_bool "LRW is square" true
        (lrw.L.Tile_size.height = lrw.L.Tile_size.width);
      (* TSS maximizes area: at least as big as the square *)
      check_bool "TSS area >= LRW area" true
        (tss.L.Tile_size.height * tss.L.Tile_size.width
        >= lrw.L.Tile_size.height * lrw.L.Tile_size.width))
    [ 100; 200; 300; 301; 400; 511 ]

let test_assoc_aware_pad () =
  let p = K.Paper_examples.figure2 256 in
  let layout = Layout.initial p in
  (* with assoc 1 it behaves like PAD: no set holds >= 1 foreign ref *)
  let a1 = L.Pad.apply ~assoc:1 ~size:(16 * 1024) ~line:32 p layout in
  check_int "assoc-1 leaves no severe conflicts" 0
    (List.length (L.Pad.remaining_conflicts ~size:(16 * 1024) ~line:32 p a1));
  (* higher associativity demands less padding *)
  let a2 = L.Pad.apply ~assoc:2 ~size:(16 * 1024) ~line:32 p layout in
  let total_pad l =
    List.fold_left (fun acc v -> acc + Layout.pad_before l v) 0 (Layout.array_names l)
  in
  check_bool "2-way needs no more padding than 1-way" true
    (total_pad a2 <= total_pad a1)

let prop_l1_clean_implies_l2_clean =
  (* the paper's Section 5 modular-arithmetic claim *)
  QCheck.Test.make ~name:"no L1 self-interference implies none on k*S1" ~count:200
    QCheck.(pair (int_range 65 4000) (int_range 2 32))
    (fun (col, k) ->
      let s1_elems = 2048 in
      let tile =
        L.Tile_size.select ~cache_bytes:(s1_elems * 8) ~elem:8 ~col_elems:col
          ~rows:col ()
      in
      L.Tile_size.no_l2_interference ~s1_elems ~k ~col_elems:col tile)

(* --- Fusion ------------------------------------------------------------------ *)

let test_fuse_figure2_matches_figure6 () =
  let fig2 = K.Paper_examples.figure2 64 in
  let fig6 = K.Paper_examples.figure6_fused 64 in
  match fig2.Program.nests with
  | [ n1; n2 ] ->
      (match L.Fusion.fuse ~shift:0 n1 n2 with
      | [ core ] ->
          let fused_p = { fig2 with Program.nests = [ core ] } in
          let layout = Layout.initial fig2 in
          Alcotest.(check (array int)) "same trace as figure 6"
            (Interp.trace layout fig6) (Interp.trace layout fused_p)
      | _ -> Alcotest.fail "expected a single fused nest")
  | _ -> Alcotest.fail "figure2 must have two nests"

let test_fuse_with_shift_peels () =
  let open Build in
  let n = 16 in
  let wa = arr "W" [ n; n ] and x = arr "X" [ n; n ] and y = arr "Y" [ n; n ] in
  let i = v "i" and j = v "j" in
  (* nest2 reads W(i,j+1): needs shift 1 *)
  let n1 =
    nest [ loop "j" 1 (n - 3); loop "i" 0 (n - 1) ]
      [ asn (w "W" [ i; j ]) [ r "X" [ i; j ] ] ]
  in
  let n2 =
    nest [ loop "j" 1 (n - 3); loop "i" 0 (n - 1) ]
      [ asn (w "Y" [ i; j ]) [ r "W" [ i; j +! 1 ] ] ]
  in
  let p = program "shifted" [ wa; x; y ] [ n1; n2 ] in
  let layout = Layout.initial p in
  check_bool "shift 0 illegal" false (An.Dependence.fusion_legal ~shift:0 n1 n2);
  let parts = L.Fusion.fuse ~shift:1 n1 n2 in
  check_int "prologue + core + epilogue" 3 (List.length parts);
  let p' = { p with Program.nests = parts } in
  (* every original address count is preserved *)
  Alcotest.(check (array int)) "same multiset of accesses"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout p');
  (* and the write of W(i,j+1) now precedes its read in program order *)
  check_bool "fused program validates" true (Validate.check p' = [])

let test_fuse_program_auto_shift () =
  let open Build in
  let n = 12 in
  let wa = arr "W" [ n; n ] and x = arr "X" [ n; n ] and y = arr "Y" [ n; n ] in
  let i = v "i" and j = v "j" in
  let n1 =
    nest [ loop "j" 1 (n - 3); loop "i" 0 (n - 1) ]
      [ asn (w "W" [ i; j ]) [ r "X" [ i; j ] ] ]
  in
  let n2 =
    nest [ loop "j" 1 (n - 3); loop "i" 0 (n - 1) ]
      [ asn (w "Y" [ i; j ]) [ r "W" [ i; j +! 1 ] ] ]
  in
  let p = program "auto" [ wa; x; y ] [ n1; n2 ] in
  let fused = L.Fusion.fuse_program p 0 in
  let layout = Layout.initial p in
  Alcotest.(check (array int)) "accesses preserved"
    (Trace_oracle.sorted_trace layout p) (Trace_oracle.sorted_trace layout fused)

let test_fusion_auto_optimizer () =
  let machine = Mlc_cachesim.Machine.ultrasparc in
  (* Figure 2 fuses profitably (the Section 4 example) *)
  let fig2 = K.Paper_examples.figure2 960 in
  let fused, log = L.Fusion.optimize_program machine fig2 in
  check_int "figure 2 collapses to one nest" 1 (List.length fused.Program.nests);
  check_bool "log mentions the fusion" true
    (List.exists
       (fun l ->
         String.length l >= 5
         && List.exists
              (fun i -> i + 5 <= String.length l && String.sub l i 5 = "fused")
              (List.init (String.length l - 4) (fun i -> i)))
       log);
  (* two nests over unrelated arrays: legal but no reuse to gain, so the
     optimizer leaves them alone *)
  let open Build in
  let a = arr "A" [ 64; 64 ] and b = arr "B" [ 64; 64 ] in
  let i = v "i" and j = v "j" in
  let mk name =
    nest [ loop "j" 1 62; loop "i" 0 63 ]
      [ asn (w name [ i; j ]) [ r name [ i; j -! 1 ] ] ]
  in
  let p = program "disjoint" [ a; b ] [ mk "A"; mk "B" ] in
  let fused2, _ = L.Fusion.optimize_program machine p in
  check_int "disjoint nests not fused" 2 (List.length fused2.Program.nests);
  (* the fused figure 2 behaves identically to the hand-fused version *)
  let layout = Layout.initial fig2 in
  Alcotest.(check (array int)) "same accesses as figure 6"
    (Trace_oracle.sorted_trace layout (K.Paper_examples.figure6_fused 960))
    (Trace_oracle.sorted_trace layout fused)

let test_fusion_rejects_impossible () =
  let open Build in
  let n = 8 in
  let wa = arr "W" [ n ] in
  let i = v "i" in
  (* nest2 reads W(7 - i): no constant distance -> Unknown -> reject *)
  let n1 = nest [ loop "i" 0 (n - 1) ] [ asn (w "W" [ i ]) [ r "W" [ i ] ] ] in
  let n2 =
    nest [ loop "i" 0 (n - 1) ]
      [ asn (w "W" [ i ]) [ r "W" [ Expr.sub (c (n - 1)) i ] ] ]
  in
  ignore wa;
  match L.Fusion.fuse ~shift:0 n1 n2 with
  | exception L.Fusion.Illegal _ -> ()
  | _ -> Alcotest.fail "expected Illegal"

let () =
  Alcotest.run "transform"
    [
      ( "permute",
        [
          Alcotest.test_case "figure 1" `Quick test_permute_figure1;
          Alcotest.test_case "rejects non-permutation" `Quick test_permute_rejects_non_permutation;
          Alcotest.test_case "rejects dependence violation" `Quick
            test_permute_rejects_dependence_violation;
          Alcotest.test_case "optimize picks unit stride" `Quick
            test_permute_optimize_picks_unit_stride;
        ] );
      ( "section2",
        [ Alcotest.test_case "every level at once" `Quick test_section2_every_level ] );
      ( "tiling",
        [
          Alcotest.test_case "strip-mine exact cover" `Quick test_strip_mine_exact_cover;
          Alcotest.test_case "figure 8 shape" `Quick test_tiled_matmul_shape;
          QCheck_alcotest.to_alcotest prop_tiling_preserves_accesses;
        ] );
      ( "tile_size",
        [
          Alcotest.test_case "euclid chain" `Quick test_euclid_chain;
          Alcotest.test_case "conflict-free width" `Quick test_conflict_free_width;
          Alcotest.test_case "gap scan rules" `Quick test_gap_scan_rules;
          Alcotest.test_case "pinned figure13 and tiles" `Quick test_pinned_tiles;
          QCheck_alcotest.to_alcotest prop_gap_scan_matches_oracle;
          Alcotest.test_case "LRW and TSS" `Quick test_alternative_tile_algorithms;
          Alcotest.test_case "assoc-aware PAD" `Quick test_assoc_aware_pad;
          QCheck_alcotest.to_alcotest prop_selected_tiles_conflict_free;
          QCheck_alcotest.to_alcotest prop_l1_clean_implies_l2_clean;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "figure 2 fuses to figure 6" `Quick test_fuse_figure2_matches_figure6;
          Alcotest.test_case "shift + peel" `Quick test_fuse_with_shift_peels;
          Alcotest.test_case "auto shift" `Quick test_fuse_program_auto_shift;
          Alcotest.test_case "auto optimizer" `Quick test_fusion_auto_optimizer;
          Alcotest.test_case "rejects impossible" `Quick test_fusion_rejects_impossible;
        ] );
    ]
