(* Differential oracle: the fast backend against the reference cascade.

   Fast_sim claims bit-identical per-level stats (hits, misses, writes,
   writebacks) for arbitrary hierarchies without prefetch.  These tests
   hold it to that over random traces, random block-shaped access
   patterns, and random power-of-two geometries, and check the
   stack-distance sweep against full per-associativity simulations.

   Case counts scale with the QCHECK_COUNT environment variable (the
   nightly CI job sets it to 2000); the defaults already exceed 1000
   random (trace, hierarchy) cases per run. *)

module Cs = Mlc_cachesim

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* --- generators -------------------------------------------------------- *)

let gen_geom =
  QCheck.Gen.(
    let* line_bits = int_range 4 6 in
    let* sets_bits = int_range 0 4 in
    let* assoc = oneofl [ 1; 2; 4 ] in
    let line = 1 lsl line_bits in
    let n_sets = 1 lsl sets_bits in
    return { Cs.Level.size = line * n_sets * assoc; line; assoc })

let gen_hierarchy =
  QCheck.Gen.(
    let* geoms = list_size (int_range 1 3) gen_geom in
    let* write_allocate = bool in
    return (write_allocate, geoms))

let gen_trace =
  QCheck.Gen.(
    list_size (int_range 1 400) (pair (int_range 0 8191) bool))

let print_geom (g : Cs.Level.geometry) =
  Printf.sprintf "{size=%d;line=%d;assoc=%d}" g.Cs.Level.size g.Cs.Level.line
    g.Cs.Level.assoc

let print_hierarchy (wa, geoms) =
  Printf.sprintf "write_allocate=%b [%s]" wa
    (String.concat "; " (List.map print_geom geoms))

(* --- trace-level equivalence ------------------------------------------- *)

let stats_match h f =
  List.for_all2 Cs.Stats.equal
    (List.map Cs.Level.stats (Cs.Hierarchy.levels h))
    (Cs.Fast_sim.level_stats f)

let prop_trace_equivalence =
  QCheck.Test.make
    ~name:"random trace: Fast_sim.access = Hierarchy.access (stats + hit level)"
    ~count:(qcheck_count 600)
    (QCheck.make
       ~print:(fun (h, trace) ->
         Printf.sprintf "%s trace=%s" (print_hierarchy h)
           (String.concat ","
              (List.map
                 (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else ""))
                 trace)))
       QCheck.Gen.(pair gen_hierarchy gen_trace))
    (fun ((write_allocate, geoms), trace) ->
      let h = Cs.Hierarchy.create ~write_allocate geoms in
      let f = Cs.Fast_sim.create ~write_allocate geoms in
      let levels_agree = ref true in
      List.iter
        (fun (addr, write) ->
          let lh = Cs.Hierarchy.access h ~write addr in
          let lf = Cs.Fast_sim.access f ~write addr in
          if lh <> lf then levels_agree := false)
        trace;
      !levels_agree && stats_match h f
      && Cs.Hierarchy.writebacks h = Cs.Fast_sim.writebacks f
      && Cs.Hierarchy.miss_rates h = Cs.Fast_sim.miss_rates f
      && Cs.Hierarchy.memory_accesses h = Cs.Fast_sim.memory_accesses f)

(* --- block-level equivalence ------------------------------------------- *)

(* Loop-shaped access patterns: a handful of references advancing by
   per-ref strides, the shape [block] bulk-optimizes.  Strides are drawn
   to cover the interesting regimes: zero stride, sub-line strides
   (steady hits), line-sized and super-line strides (miss per segment),
   negative strides, and non-power-of-two ones. *)
let gen_block =
  QCheck.Gen.(
    let* nrefs = int_range 1 4 in
    let* bases = list_repeat nrefs (int_range 0 4096) in
    let* strides =
      list_repeat nrefs
        (oneofl [ -100; -64; -32; -8; -4; 0; 4; 8; 12; 16; 24; 32; 64; 100; 256 ])
    in
    let* writes = list_repeat nrefs bool in
    let* count = int_range 1 300 in
    return (Array.of_list bases, Array.of_list strides, Array.of_list writes, count))

let print_block (h, (bases, strides, writes, count)) =
  Printf.sprintf "%s bases=[%s] strides=[%s] writes=[%s] count=%d"
    (print_hierarchy h)
    (String.concat ";" (Array.to_list (Array.map string_of_int bases)))
    (String.concat ";" (Array.to_list (Array.map string_of_int strides)))
    (String.concat ";" (Array.to_list (Array.map string_of_bool writes)))
    count

(* [block] against the per-access reference cascade: stats and writebacks *)
let block_matches ((write_allocate, geoms), (bases, strides, writes, count)) =
  let h = Cs.Hierarchy.create ~write_allocate geoms in
  let f = Cs.Fast_sim.create ~write_allocate geoms in
  for j = 0 to count - 1 do
    for r = 0 to Array.length bases - 1 do
      ignore (Cs.Hierarchy.access h ~write:writes.(r) (bases.(r) + (j * strides.(r))))
    done
  done;
  Cs.Fast_sim.block f ~bases ~strides ~writes ~count;
  stats_match h f && Cs.Hierarchy.writebacks h = Cs.Fast_sim.writebacks f

let prop_block_equivalence =
  QCheck.Test.make
    ~name:"random block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_block QCheck.Gen.(pair gen_hierarchy gen_block))
    block_matches

(* Miss-heavy blocks: references whose bases differ by multiples of the
   L1 size ping-pong in one L1 set, and strides of at least a line move
   every reference onto a new line each iteration, so almost every
   access misses L1 and walks the lower levels.  Below a mostly
   direct-mapped L1 sit one or two levels; two always mix a
   direct-mapped and an associative level, in either order. *)
let gen_ping_pong =
  QCheck.Gen.(
    let* line_bits = int_range 4 5 in
    let* sets_bits = int_range 1 4 in
    let* l1_assoc = oneofl [ 1; 1; 1; 2 ] in
    let line = 1 lsl line_bits in
    let l1_size = line * (1 lsl sets_bits) * l1_assoc in
    let lower assoc =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 6 in
      return { Cs.Level.size = (1 lsl (lbits + sbits)) * assoc; line = 1 lsl lbits; assoc }
    in
    let* lowers =
      oneof
        [
          (let* assoc = oneofl [ 1; 2; 4 ] in
           map (fun g -> [ g ]) (lower assoc));
          (let* assoc = oneofl [ 2; 4 ] in
           let* dm = lower 1 and* sa = lower assoc in
           oneofl [ [ dm; sa ]; [ sa; dm ] ]);
        ]
    in
    let* write_allocate = bool in
    let* nrefs = int_range 2 4 in
    let* start = int_range 0 (l1_size - 1) in
    let* bases = list_repeat nrefs (map (fun k -> start + (k * l1_size)) (int_range 0 4)) in
    let stride =
      oneofl [ line; 2 * line; 3 * line; -line; -2 * line; line + 8; l1_size ]
    in
    let* shared = bool and* s = stride in
    let* strides = list_repeat nrefs (if shared then return s else stride) in
    let* writes = list_repeat nrefs bool in
    let* count = int_range 1 200 in
    return
      ( (write_allocate, { Cs.Level.size = l1_size; line; assoc = l1_assoc } :: lowers),
        (Array.of_list bases, Array.of_list strides, Array.of_list writes, count) ))

let prop_ping_pong =
  QCheck.Test.make
    ~name:"ping-pong block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_block gen_ping_pong)
    block_matches

(* --- whole-kernel equivalence ------------------------------------------- *)

(* End-to-end: Interp with backend:`Fast must reproduce the reference
   result record exactly — counters and derived floats — on real kernels,
   on both machine presets, including gather kernels (IRR, BUK, CGM) that
   take the walker's per-access path.  BUK and CGM also run under a
   layout that starts every array on a multiple of the L1 size, so that
   their streams ping-pong in L1, and CGM under MULTILVLPAD's (which
   pads COLIDX at this size; it leaves BUK packed). *)
let l1_aligned machine layout =
  let l1 = (List.hd machine.Cs.Machine.geometries).Cs.Level.size in
  List.fold_left
    (fun layout name ->
      let base = Mlc_ir.Layout.base layout name in
      Mlc_ir.Layout.add_pad_before layout name ((l1 - (base mod l1)) mod l1))
    layout
    (Mlc_ir.Layout.array_names layout)

let test_kernel_equivalence () =
  let open Mlc_ir in
  let initial _ = Layout.initial in
  let multilvlpad machine =
    Locality.Pipeline.layout_for machine Locality.Pipeline.Pad_multilevel
  in
  let aligned machine program = l1_aligned machine (Layout.initial program) in
  let cases =
    [
      ("jacobi64", Mlc_kernels.Livermore.jacobi 64, initial);
      ("expl48", Mlc_kernels.Livermore.expl 48, initial);
      ("dot512", Mlc_kernels.Livermore.dot 512, initial);
      ("irr40", Mlc_kernels.Livermore.irr 40, initial);
      ("adi32", Mlc_kernels.Livermore.adi 32, initial);
      ("buk2048", Mlc_kernels.Nas.buk 2048, initial);
      ("buk2048 L1-aligned", Mlc_kernels.Nas.buk 2048, aligned);
      ("cgm2048 multilvlpad", Mlc_kernels.Nas.cgm 2048, multilvlpad);
      ("cgm2048 L1-aligned", Mlc_kernels.Nas.cgm 2048, aligned);
    ]
  in
  List.iter
    (fun (name, program, layout_for) ->
      List.iter
        (fun machine ->
          let layout = layout_for machine program in
          let reference = Interp.run ~backend:`Reference machine layout program in
          let fast = Interp.run ~backend:`Fast machine layout program in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s" name machine.Cs.Machine.name)
            true
            (reference = fast))
        [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ])
    cases

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trace_equivalence;
            prop_block_equivalence;
            prop_ping_pong;
          ] );
      ( "kernels",
        [ Alcotest.test_case "Interp fast = reference" `Quick test_kernel_equivalence ] );
    ]
