(* Differential oracle: the fast backend against the reference cascade.

   Fast_sim claims bit-identical per-level stats (hits, misses, writes,
   writebacks) for any direct-mapped hierarchy without prefetch.  These
   tests hold it to that over random traces, random block-shaped access
   patterns, and random power-of-two direct-mapped geometries.  The
   reference cascade's k-way LRU has its own oracle in
   test_properties.ml.

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
    let line = 1 lsl line_bits in
    return { Cs.Level.size = line lsl sets_bits; line; assoc = 1 })

let gen_hierarchy =
  QCheck.Gen.(
    let* geoms = list_size (int_range 1 3) gen_geom in
    let* write_allocate = bool in
    return (write_allocate, geoms))

(* Addresses near 0, below 0 and at or above 2^40, with the same low
   bits in each region so that lines of different regions share sets:
   the fast backend packs a line address and a dirty bit into one word,
   which must hold over the whole address range.  Out-of-bounds
   programs issue such addresses. *)
let gen_addr =
  QCheck.Gen.(
    let* low = int_range 0 8191 in
    frequency
      [
        (6, return low);
        (2, return (low - 8192));
        (2, return ((1 lsl 40) + low));
        (1, oneofl [ min_int + low; max_int - low ]);
      ])

let gen_trace =
  QCheck.Gen.(list_size (int_range 1 400) (pair gen_addr bool))

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
      !levels_agree && stats_match h f)

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

(* A two-loop [block] against the per-access reference cascade, rows
   then iterations then references: per-level stats. *)
let rows_match (write_allocate, geoms) ~bases ~strides ~writes ~count ~outer_strides
    ~outer_count =
  let h = Cs.Hierarchy.create ~write_allocate geoms in
  let f = Cs.Fast_sim.create ~write_allocate geoms in
  for o = 0 to outer_count - 1 do
    for j = 0 to count - 1 do
      for r = 0 to Array.length bases - 1 do
        ignore
          (Cs.Hierarchy.access h ~write:writes.(r)
             (bases.(r) + (o * outer_strides.(r)) + (j * strides.(r))))
      done
    done
  done;
  Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count;
  stats_match h f

(* A one-row [block] *)
let block_matches (h, (bases, strides, writes, count)) =
  rows_match h ~bases ~strides ~writes ~count
    ~outer_strides:(Array.make (Array.length bases) 0)
    ~outer_count:1

let prop_block_equivalence =
  QCheck.Test.make
    ~name:"random block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_block QCheck.Gen.(pair gen_hierarchy gen_block))
    block_matches

(* Miss-heavy blocks: references whose bases differ by multiples of the
   L1 size ping-pong in one L1 set, and strides of at least a line move
   every reference onto a new line each iteration, so almost every
   access misses L1 and walks the lower levels.  Below the L1 sit one or
   two levels, each with its own line and set count. *)
let gen_ping_pong =
  QCheck.Gen.(
    let* line_bits = int_range 4 5 in
    let* sets_bits = int_range 1 4 in
    let line = 1 lsl line_bits in
    let l1_size = line lsl sets_bits in
    let lower =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 6 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
    let* lowers = list_size (int_range 1 2) lower in
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
      ( (write_allocate, { Cs.Level.size = l1_size; line; assoc = 1 } :: lowers),
        (Array.of_list bases, Array.of_list strides, Array.of_list writes, count) ))

let prop_ping_pong =
  QCheck.Test.make
    ~name:"ping-pong block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_block gen_ping_pong)
    block_matches

(* Two-loop segments: 1-6 rows whose outer strides are negative, zero,
   or smaller than a row's span, so that rows revisit each other's
   lines.  The L1 sits over 0-2 lower levels;
   the miss-heavy shape (line-sized strides, rows up to 300 iterations)
   pushes more L1 misses through one call than [Fast_sim]'s batch of
   pending misses holds. *)
let gen_rows =
  QCheck.Gen.(
    let* nlevels = oneofl [ 1; 2; 2; 3; 3 ] in
    let* geoms = list_repeat nlevels gen_geom in
    let* write_allocate = bool in
    let* nrefs = int_range 1 4 in
    let* bases = list_repeat nrefs (int_range 0 4096) in
    let* miss_heavy = bool in
    let* strides =
      list_repeat nrefs
        (if miss_heavy then oneofl [ -64; 64; 96; 128 ]
         else oneofl [ -32; -8; 0; 4; 8; 12; 16; 24; 64 ])
    in
    let* count = if miss_heavy then int_range 100 300 else int_range 1 60 in
    let* outer_count = int_range 1 6 in
    let outer s =
      let span = max 1 (abs (count * s)) in
      oneof [ return 0; int_range (-span) (-1); int_range 1 span; oneofl [ -512; 8; 256 ] ]
    in
    let* outer_strides = flatten_l (List.map outer strides) in
    let* writes = list_repeat nrefs bool in
    return
      ( (write_allocate, geoms),
        ( Array.of_list bases,
          Array.of_list strides,
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let print_rows (h, (bases, strides, writes, count, outer_strides, outer_count)) =
  Printf.sprintf "%s outer_strides=[%s] outer_count=%d"
    (print_block (h, (bases, strides, writes, count)))
    (String.concat ";" (Array.to_list (Array.map string_of_int outer_strides)))
    outer_count

let prop_rows =
  QCheck.Test.make
    ~name:"random two-loop block: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_rows gen_rows)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* One call whose L1 misses outnumber the pending-miss batch several
   times over (every access misses a 256-byte direct-mapped L1), on 2-
   and 3-level hierarchies, under both write policies. *)
let test_rows_overflow_batch () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  let nrefs = 4 and count = 300 and outer_count = 6 in
  let bases = Array.init nrefs (fun r -> r * 256) in
  let strides = Array.make nrefs 32 and outer_strides = Array.make nrefs (-4096) in
  let writes = Array.init nrefs (fun r -> r mod 2 = 1) in
  List.iter
    (fun lowers ->
      List.iter
        (fun write_allocate ->
          let geoms = g 256 32 1 :: lowers in
          let f = Cs.Fast_sim.create ~write_allocate geoms in
          Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count;
          let l1 = List.hd (Cs.Fast_sim.level_stats f) in
          Alcotest.(check bool) "L1 misses exceed 4096" true (l1.Cs.Stats.misses > 4096);
          Alcotest.(check bool)
            (Printf.sprintf "%d levels, write_allocate=%b" (List.length geoms)
               write_allocate)
            true
            (rows_match (write_allocate, geoms) ~bases ~strides ~writes ~count
               ~outer_strides ~outer_count))
        [ true; false ])
    [ [ g 4096 64 1 ]; [ g 1024 32 1; g 16384 64 1 ]; [ g 4096 64 1; g 8192 64 1 ] ]

let test_rows_length_mismatch () =
  let f = Cs.Fast_sim.create [ { Cs.Level.size = 1024; line = 32; assoc = 1 } ] in
  Alcotest.check_raises "outer_strides shorter than bases"
    (Invalid_argument "Fast_sim.block: bases/strides/writes/outer_strides length mismatch")
    (fun () ->
      Cs.Fast_sim.block f ~bases:[| 0; 64 |] ~strides:[| 8; 8 |] ~writes:[| false; true |]
        ~count:4 ~outer_strides:[| 512 |] ~outer_count:2)

(* Crossing streams: 3-8 references with sub-line strides (12 and 24
   among them, a downward one and one of stride 0) that cross L1 lines
   at different iterations, over an L1 and 1-2 lower levels.
   Every base is placed so that its reference lands in one common L1 set
   at a chosen iteration in the middle of the first row, a multiple of
   the L1 size away from the others (give or take a few bytes), so that
   a crossing fills a line another reference is still on.  Some
   references repeat an earlier one (as C(i,j) is read and then
   written), so that a line can be written, evicted and refilled clean
   by another reference within one iteration; some blocks' rows continue
   one another, which [block] joins into one row. *)
let gen_crossing =
  QCheck.Gen.(
    let* line_bits = int_range 5 6 in
    let* sets_bits = int_range 2 5 in
    let line = 1 lsl line_bits in
    let l1_size = line * (1 lsl sets_bits) in
    let lower =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 7 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
    let* lowers = list_size (int_range 1 2) lower in
    let* write_allocate = bool in
    let* nrefs = int_range 3 8 in
    let* count = int_range 50 400 in
    let* meet = int_range (count / 4) (3 * count / 4) in
    let* target = int_range 0 (16 * l1_size) in
    (* (stride, base) per reference; the stride-0 one first, then moved *)
    let shape s =
      let* k = int_range 0 3 and* jitter = oneofl [ 0; 0; 4; 8; -8 ] in
      return (s, target + (k * l1_size) + jitter - (meet * s))
    in
    let* first = shape 0 in
    let rec more n acc =
      if n = 0 then return (List.rev acc)
      else
        let* repeat = oneofl [ false; false; false; true ] in
        let* next =
          if repeat then oneofl acc
          else oneofl [ 4; 8; 8; 12; 16; 24; -8; -8; -12 ] >>= shape
        in
        more (n - 1) (next :: acc)
    in
    let* shapes = more (nrefs - 1) [ first ] in
    let* zero_at = int_range 0 (nrefs - 1) in
    let shapes =
      (* move the stride-0 reference to [zero_at] *)
      List.filteri (fun i _ -> i > 0 && i <= zero_at) shapes
      @ [ first ]
      @ List.filteri (fun i _ -> i > zero_at) shapes
    in
    let strides = List.map fst shapes and bases = List.map snd shapes in
    let* outer_count = int_range 1 4 in
    let* continued = oneofl [ false; false; false; true ] in
    let* outer_strides =
      (* rows that continue one another, or rows apart *)
      if continued then return (List.map (fun s -> count * s) strides)
      else
        flatten_l
          (List.map
             (fun s -> oneofl [ 0; count * s; line; -l1_size; l1_size + 8 ])
             strides)
    in
    let* writes = list_repeat nrefs bool in
    return
      ( (write_allocate, { Cs.Level.size = l1_size; line; assoc = 1 } :: lowers),
        ( Array.of_list bases,
          Array.of_list strides,
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let prop_crossing =
  QCheck.Test.make
    ~name:"crossing streams: Fast_sim.block = per-access reference cascade"
    ~count:(qcheck_count 400)
    (QCheck.make ~print:print_rows gen_crossing)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* Found by the crossing-streams property.  After an iteration run in
   place, a writing reference can stay on a line that is resident but
   clean: here, under no-write-allocate, its write misses and a later
   read in the same iteration fills the line clean.  The bulk phase must
   not resume then, or that line's next eviction loses its writeback. *)
let test_refilled_clean () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  Alcotest.(check bool) "stats = reference cascade" true
    (rows_match
       (false, [ g 256 32 1; g 2048 64 1; g 1024 64 1 ])
       ~bases:[| 2262; 4538; 754; 742; 754; 3018 |]
       ~strides:[| 4; -8; 12; 12; 12; 0 |]
       ~writes:[| true; false; true; false; false; false |]
       ~count:350 ~outer_strides:[| 32; 0; 4200; -256; 0; 0 |] ~outer_count:4)

(* The matmul cells' shape (loops J, K, I): C(i,j) read and written and
   A(i,k) at stride 8, B(k,j) at stride 0, the K x I rows of a few
   columns j as one two-loop segment each, on the UltraSPARC geometry.
   C and A each cross an L1 line every fourth iteration, A two
   iterations after C; a crossing that misses runs in place, so every
   sequential iteration has a miss and the rest of each row is bulk. *)
let test_matmul_rows () =
  let n = 96 and elem = 8 in
  let col = n * elem in
  let a = (n * col) + 16 and b = 2 * n * col in
  let geoms = Cs.Machine.ultrasparc.Cs.Machine.geometries in
  let f = Cs.Fast_sim.create geoms and h = Cs.Hierarchy.create geoms in
  let writes = [| false; false; false; true |] in
  let strides = [| elem; elem; 0; elem |] in
  let outer_strides = [| 0; col; elem; 0 |] in
  for j = 0 to 3 do
    let bases = [| j * col; a; b + (j * col); j * col |] in
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        for r = 0 to 3 do
          ignore
            (Cs.Hierarchy.access h ~write:writes.(r)
               (bases.(r) + (k * outer_strides.(r)) + (i * strides.(r))))
        done
      done
    done;
    Cs.Fast_sim.block f ~bases ~strides ~writes ~count:n ~outer_strides ~outer_count:n
  done;
  Alcotest.(check bool) "stats = reference cascade" true (stats_match h f);
  let m = Cs.Fast_sim.metrics f in
  let l1_misses = (List.hd (Cs.Fast_sim.level_stats f)).Cs.Stats.misses in
  Alcotest.(check int) "every iteration accounted" (4 * n * n)
    (m.Cs.Fast_sim.bulk_iterations + m.Cs.Fast_sim.seq_iterations);
  Alcotest.(check bool) "bulk segments" true (m.Cs.Fast_sim.bulk_segments > 0);
  Alcotest.(check bool) "sequential iterations" true (m.Cs.Fast_sim.seq_iterations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "no more sequential iterations (%d) than L1 misses (%d)"
       m.Cs.Fast_sim.seq_iterations l1_misses)
    true
    (m.Cs.Fast_sim.seq_iterations <= l1_misses)

(* The packed tag word at the ends of the address range, against the
   reference on every level: -1, min_int and max_int (and their
   neighbours, which share lines with them), read and written, on the
   UltraSPARC and Alpha geometries and a smaller two-level one, then as
   blocks around the same addresses. *)
let test_extreme_addresses () =
  let addrs = [ -1; min_int; max_int; 0; -1; max_int - 8; min_int + 8; -4096; 1 lsl 40 ] in
  let trace = List.concat_map (fun a -> [ (a, false); (a, true); (a, false) ]) addrs in
  List.iter
    (fun geoms ->
      List.iter
        (fun write_allocate ->
          let h = Cs.Hierarchy.create ~write_allocate geoms in
          let f = Cs.Fast_sim.create ~write_allocate geoms in
          List.iter
            (fun (addr, write) ->
              Alcotest.(check int)
                (Printf.sprintf "hit level of %d" addr)
                (Cs.Hierarchy.access h ~write addr)
                (Cs.Fast_sim.access f ~write addr))
            trace;
          Alcotest.(check bool) "stats after the trace" true (stats_match h f);
          Alcotest.(check bool) "blocks at the range ends" true
            (rows_match (write_allocate, geoms)
               ~bases:[| -1; min_int; max_int; -64 |]
               ~strides:[| 8; 8; -8; 0 |]
               ~writes:[| true; false; true; false |]
               ~count:40 ~outer_strides:[| -8192; 16384; 0; 8 |] ~outer_count:3))
        [ true; false ])
    [
      Cs.Machine.ultrasparc.Cs.Machine.geometries;
      Cs.Machine.alpha21164.Cs.Machine.geometries;
      [ { Cs.Level.size = 2048; line = 32; assoc = 1 }; { Cs.Level.size = 65536; line = 64; assoc = 1 } ];
    ]

(* Associative levels are the reference cascade's alone: [create]
   rejects them, naming the level. *)
let test_create_rejects_assoc () =
  Alcotest.check_raises "2-way L2"
    (Invalid_argument
       "Fast_sim.create: L2 is 2-way, only direct-mapped levels are simulated")
    (fun () ->
      ignore
        (Cs.Fast_sim.create
           [ { Cs.Level.size = 1024; line = 32; assoc = 1 };
             { Cs.Level.size = 8192; line = 64; assoc = 2 } ]))

(* --- whole-kernel equivalence ------------------------------------------- *)

(* End-to-end: Interp with backend:`Fast must reproduce the reference
   result record exactly — counters and derived floats — on real kernels,
   on both machine presets, including gather kernels (IRR, BUK, CGM) that
   take the walker's per-access path.  BUK and CGM also run under a
   layout that starts every array on a multiple of the L1 size, so that
   their streams ping-pong in L1, and CGM under MULTILVLPAD's (which
   pads COLIDX at this size; it leaves BUK packed).  APPBT, APPLU and
   APPSP (downward loops, 5-component leading dimensions) run packed,
   under MULTILVLPAD (which intra-pads APPSP's U on the Alpha model at
   this size) and, for APPBT, with every array intra-padded; they and a
   4-row matmul tile go through the walker's two-loop segments at a high
   L1 miss ratio. *)
let l1_aligned machine layout =
  let l1 = (List.hd machine.Cs.Machine.geometries).Cs.Level.size in
  List.fold_left
    (fun layout name ->
      let base = Mlc_ir.Layout.base layout name in
      Mlc_ir.Layout.add_pad_before layout name ((l1 - (base mod l1)) mod l1))
    layout
    (Mlc_ir.Layout.array_names layout)

(* What [mlc compile] simulates: [Compiler.optimize]'s program and layout
   for every Table 1 kernel at a small size, optimized for the machine it
   runs on.  Permutation and fusion change the loop structure the walker
   segments, and the fused APPBT and APPSP index outside their arrays (the
   fusion defect [Validate.check] reports); the backends must agree on
   that traffic too. *)
let compile_sizes =
  [
    ("ADI32", 32); ("DOT256", 4096); ("ERLE64", 16); ("EXPL512", 48);
    ("IRR500K", 2000); ("JACOBI512", 64); ("LINPACKD", 32); ("SHAL512", 48);
    ("APPBT", 12); ("APPLU", 12); ("APPSP", 12); ("BUK", 4096); ("CGM", 2048);
    ("EMBAR", 4096); ("FFTPDE", 4096); ("MGRID", 16); ("APSI", 16);
    ("FPPPP", 128); ("HYDRO2D", 48); ("SU2COR", 16); ("SWIM", 48);
    ("TOMCATV", 33); ("TURB3D", 16); ("WAVE5", 64);
  ]

let test_kernel_equivalence () =
  let open Mlc_ir in
  let initial _ = Layout.initial in
  let multilvlpad machine =
    Locality.Pipeline.layout_for machine Locality.Pipeline.Pad_multilevel
  in
  let aligned machine program = l1_aligned machine (Layout.initial program) in
  let intra_padded _ program =
    List.fold_left
      (fun layout name -> Layout.set_intra_pad layout name 3)
      (Layout.initial program)
      (Layout.array_names (Layout.initial program))
  in
  let machines = [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ] in
  let check name machine program layout =
    let reference = Interp.run ~backend:`Reference machine layout program in
    let fast = Interp.run ~backend:`Fast machine layout program in
    Alcotest.(check bool)
      (Printf.sprintf "%s on %s" name machine.Cs.Machine.name)
      true (reference = fast)
  in
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
      ("appbt16", Mlc_kernels.Nas.bt 16, initial);
      ("appbt16 multilvlpad", Mlc_kernels.Nas.bt 16, multilvlpad);
      ("appbt12 intra-padded", Mlc_kernels.Nas.bt 12, intra_padded);
      ("applu16", Mlc_kernels.Nas.lu 16, initial);
      ("applu16 multilvlpad", Mlc_kernels.Nas.lu 16, multilvlpad);
      ("appsp16", Mlc_kernels.Nas.sp 16, initial);
      ("appsp16 multilvlpad", Mlc_kernels.Nas.sp 16, multilvlpad);
      ("tiled matmul 4-row tile", Locality.Tiling.tiled_matmul ~n:48 ~h:4 ~w:40, initial);
    ]
  in
  List.iter
    (fun (name, program, layout_for) ->
      List.iter
        (fun machine -> check name machine program (layout_for machine program))
        machines)
    cases;
  List.iter
    (fun (name, n) ->
      let program =
        (Option.get (Mlc_kernels.Registry.find name).Mlc_kernels.Registry.build_sized) n
      in
      List.iter
        (fun machine ->
          let r = Locality.Compiler.optimize machine program in
          check (name ^ " compiled") machine r.Locality.Compiler.program
            r.Locality.Compiler.layout)
        machines)
    compile_sizes

let () =
  Alcotest.run "differential"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_trace_equivalence;
            prop_block_equivalence;
            prop_ping_pong;
            prop_rows;
            prop_crossing;
          ] );
      ( "rows",
        [
          Alcotest.test_case "more L1 misses than the batch holds" `Quick
            test_rows_overflow_batch;
          Alcotest.test_case "outer_strides length mismatch" `Quick
            test_rows_length_mismatch;
          Alcotest.test_case "matmul rows: crossings run in place" `Quick
            test_matmul_rows;
          Alcotest.test_case "in place: a writer's line filled clean" `Quick
            test_refilled_clean;
          Alcotest.test_case "packed tags at -1, min_int, max_int" `Quick
            test_extreme_addresses;
        ] );
      ( "create",
        [ Alcotest.test_case "a 2-way level is rejected" `Quick test_create_rejects_assoc ] );
      ( "kernels",
        [ Alcotest.test_case "Interp fast = reference" `Quick test_kernel_equivalence ] );
    ]
