(* Differential oracle: the fast backend against the reference cascade.

   Fast_sim claims bit-identical per-level stats (hits, misses, writes,
   writebacks) for two direct-mapped write-allocate levels without
   prefetch, the paper's machine shape.  These tests hold it to that
   over random traces, random block-shaped access patterns, random
   interleavings of the three entry points, and random power-of-two
   direct-mapped geometries.  The
   reference cascade's k-way LRU has its own oracle in
   test_properties.ml.

   Case counts scale with the QCHECK_COUNT environment variable (CI
   sets it to 2000 on every push); the defaults already exceed 1000
   random (trace, hierarchy) cases per run. *)

module Cs = Mlc_cachesim

(* --- generators -------------------------------------------------------- *)

let gen_geom =
  QCheck.Gen.(
    let* line_bits = int_range 4 6 in
    let* sets_bits = int_range 0 4 in
    let line = 1 lsl line_bits in
    return { Cs.Level.size = line lsl sets_bits; line; assoc = 1 })

let gen_hierarchy =
  QCheck.Gen.(
    let* l1 = gen_geom and* l2 = gen_geom in
    return [ l1; l2 ])

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

let print_hierarchy geoms = Printf.sprintf "[%s]" (String.concat "; " (List.map print_geom geoms))

(* --- trace-level equivalence ------------------------------------------- *)

let stats_match h f =
  List.for_all2 Cs.Stats.equal
    (List.map Cs.Level.stats (Cs.Hierarchy.levels h))
    (Cs.Fast_sim.level_stats f)

let prop_trace_equivalence =
  QCheck.Test.make
    ~name:"random trace: Fast_sim.access = Hierarchy.access (stats + hit level)"
    ~count:(Qcheck_env.count 600)
    (QCheck.make
       ~print:(fun (h, trace) ->
         Printf.sprintf "%s trace=%s" (print_hierarchy h)
           (String.concat ","
              (List.map
                 (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else ""))
                 trace)))
       QCheck.Gen.(pair gen_hierarchy gen_trace))
    (fun (geoms, trace) ->
      let h = Cs.Hierarchy.create geoms in
      let f = Cs.Fast_sim.create geoms in
      let levels_agree = ref true in
      List.iter
        (fun (addr, write) ->
          let lh = Cs.Hierarchy.access h ~write addr in
          let lf = Cs.Fast_sim.access f ~write addr in
          if lh <> lf then levels_agree := false)
        trace;
      !levels_agree && stats_match h f)

(* A read of one line in every L1 set, at addresses far from any block,
   on both simulators: it evicts every line a block left, so the
   writebacks its dirty lines owe are counted. *)
let evict_l1 h f geoms =
  let l1 = List.hd geoms in
  for k = 0 to (l1.Cs.Level.size / l1.Cs.Level.line) - 1 do
    let a = (1 lsl 30) + (k * l1.Cs.Level.line) in
    ignore (Cs.Hierarchy.access h ~write:false a);
    ignore (Cs.Fast_sim.access f ~write:false a)
  done

(* [Fast_sim.stream] over random buffers, in one to three calls, against
   [Hierarchy.access] per access, then an [evict_l1] sweep.  Lengths
   fall on both sides of the walker's buffer (1024 accesses), up to
   three times over; each buffer is longer than the accesses it
   carries, and its tail holds addresses that must not be issued. *)
let gen_stream =
  QCheck.Gen.(
    let* h = gen_hierarchy in
    let* calls =
      list_size (int_range 1 3)
        (let* n =
           frequency
             [
               (3, int_range 0 60);
               (3, int_range 1000 1100);
               (2, int_range 2000 2100);
               (1, int_range 1 3100);
             ]
         in
         let* accesses = list_repeat n (pair gen_addr bool) in
         let* slack = int_range 0 3 in
         return (accesses, slack))
    in
    return (h, calls))

let print_stream (h, calls) =
  Printf.sprintf "%s calls=[%s]" (print_hierarchy h)
    (String.concat "; "
       (List.map
          (fun (accesses, slack) ->
            Printf.sprintf "%d accesses (+%d) %s" (List.length accesses) slack
              (String.concat ","
                 (List.map
                    (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else ""))
                    accesses)))
          calls))

let prop_stream =
  QCheck.Test.make ~name:"random buffers: Fast_sim.stream = per-access reference cascade"
    ~count:(Qcheck_env.count 300)
    (QCheck.make ~print:print_stream gen_stream)
    (fun (geoms, calls) ->
      let h = Cs.Hierarchy.create geoms in
      let f = Cs.Fast_sim.create geoms in
      List.iter
        (fun (accesses, slack) ->
          let n = List.length accesses in
          let buf = Array.make (2 * (n + slack)) 1 in
          List.iteri
            (fun k (a, w) ->
              ignore (Cs.Hierarchy.access h ~write:w a);
              buf.(2 * k) <- a;
              buf.((2 * k) + 1) <- Bool.to_int w)
            accesses;
          Cs.Fast_sim.stream f buf n)
        calls;
      evict_l1 h f geoms;
      stats_match h f)

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

let print_refs (bases, strides, writes, count) =
  Printf.sprintf "bases=[%s] strides=[%s] writes=[%s] count=%d"
    (String.concat ";" (Array.to_list (Array.map string_of_int bases)))
    (String.concat ";" (Array.to_list (Array.map string_of_int strides)))
    (String.concat ";" (Array.to_list (Array.map string_of_bool writes)))
    count

let print_block (h, refs) = print_hierarchy h ^ " " ^ print_refs refs

(* A two-loop [block] against the per-access reference cascade, rows
   then iterations then references, then [evict_l1] if [evict]:
   per-level stats. *)
let rows_match ?(evict = false) geoms ~bases ~strides ~writes ~count ~outer_strides
    ~outer_count =
  let h = Cs.Hierarchy.create geoms in
  let f = Cs.Fast_sim.create geoms in
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
  if evict then evict_l1 h f geoms;
  stats_match h f

(* A one-row [block] *)
let block_matches (h, (bases, strides, writes, count)) =
  rows_match h ~bases ~strides ~writes ~count
    ~outer_strides:(Array.make (Array.length bases) 0)
    ~outer_count:1

let prop_block_equivalence =
  QCheck.Test.make
    ~name:"random block: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_block QCheck.Gen.(pair gen_hierarchy gen_block))
    block_matches

(* Miss-heavy blocks: references whose bases differ by multiples of the
   L1 size ping-pong in one L1 set, and strides of at least a line move
   every reference onto a new line each iteration, so almost every
   access misses L1 and walks L2, which has its own line and set
   count. *)
let gen_ping_pong =
  QCheck.Gen.(
    let* line_bits = int_range 4 5 in
    let* sets_bits = int_range 1 4 in
    let line = 1 lsl line_bits in
    let l1_size = line lsl sets_bits in
    let* l2 =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 6 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
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
      ( [ { Cs.Level.size = l1_size; line; assoc = 1 }; l2 ],
        (Array.of_list bases, Array.of_list strides, Array.of_list writes, count) ))

let prop_ping_pong =
  QCheck.Test.make
    ~name:"ping-pong block: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_block gen_ping_pong)
    block_matches

(* Two-loop segments: 1-6 rows whose outer strides are negative, zero,
   or smaller than a row's span, so that rows revisit each other's
   lines.  The L1 sits over an L2; the miss-heavy shape
   (line-sized strides, rows up to 300 iterations) sends over a
   thousand L1 misses down in one call. *)
let gen_rows =
  QCheck.Gen.(
    let* geoms = gen_hierarchy in
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
      ( geoms,
        ( Array.of_list bases,
          Array.of_list strides,
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let print_segment (bases, strides, writes, count, outer_strides, outer_count) =
  Printf.sprintf "%s outer_strides=[%s] outer_count=%d"
    (print_refs (bases, strides, writes, count))
    (String.concat ";" (Array.to_list (Array.map string_of_int outer_strides)))
    outer_count

let print_rows (h, segment) = print_hierarchy h ^ " " ^ print_segment segment

let prop_rows =
  QCheck.Test.make
    ~name:"random two-loop block: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_rows gen_rows)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* One call with thousands of L1 misses (every access misses a 256-byte
   direct-mapped L1), each stepping L2 as it happens, over three L2s. *)
let test_rows_overflow_batch () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  let nrefs = 4 and count = 300 and outer_count = 6 in
  let bases = Array.init nrefs (fun r -> r * 256) in
  let strides = Array.make nrefs 32 and outer_strides = Array.make nrefs (-4096) in
  let writes = Array.init nrefs (fun r -> r mod 2 = 1) in
  List.iter
    (fun l2 ->
      let geoms = [ g 256 32 1; l2 ] in
      let f = Cs.Fast_sim.create geoms in
      Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count;
      let l1 = List.hd (Cs.Fast_sim.level_stats f) in
      Alcotest.(check bool) "L1 misses exceed 4096" true (l1.Cs.Stats.misses > 4096);
      Alcotest.(check bool)
        (Printf.sprintf "L2 %s" (print_geom l2))
        true
        (rows_match geoms ~bases ~strides ~writes ~count ~outer_strides ~outer_count))
    [ g 4096 64 1; g 1024 32 1; g 16384 64 1 ]

let small_dm = [ { Cs.Level.size = 1024; line = 32; assoc = 1 }; { Cs.Level.size = 8192; line = 64; assoc = 1 } ]

let test_rows_length_mismatch () =
  let f = Cs.Fast_sim.create small_dm in
  Alcotest.check_raises "outer_strides shorter than bases"
    (Invalid_argument "Fast_sim.block: bases/strides/writes/outer_strides length mismatch")
    (fun () ->
      Cs.Fast_sim.block f ~bases:[| 0; 64 |] ~strides:[| 8; 8 |] ~writes:[| false; true |]
        ~count:4 ~outer_strides:[| 512 |] ~outer_count:2)

(* One call with 1100 references, more than a kilo-entry scratch
   buffer would hold per iteration, over 24 KB, with sub-line, zero,
   line and multi-line strides (up and down) and random writes, in 3
   rows of 40 iterations, on two hierarchies; every L1 line is evicted
   at the end. *)
let test_wide_block () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  let nrefs = 1100 in
  let st = Random.State.make [| 1100 |] in
  let bases = Array.init nrefs (fun _ -> 8 * Random.State.int st 3072) in
  let strides =
    Array.init nrefs (fun _ ->
        [| 8; 8; 8; 0; 32; -8; 64; 200 |].(Random.State.int st 8))
  in
  let writes = Array.init nrefs (fun _ -> Random.State.int st 3 = 0) in
  let outer_strides = Array.map (fun s -> (40 * s) + 4096) strides in
  List.iter
    (fun geoms ->
      Alcotest.(check bool) (print_hierarchy geoms) true
        (rows_match ~evict:true geoms ~bases ~strides ~writes ~count:40 ~outer_strides
           ~outer_count:3))
    [ Cs.Machine.ultrasparc.Cs.Machine.geometries; [ g 4096 32 1; g 16384 64 1 ] ]

(* A sequential iteration with 1024 L1 misses, then in-place installs.
   256 reads four lines apart on a 2048-set L1, at stride 8: row 0 misses
   at iteration 0 and installs its crossings at iterations 4 and 8 in
   place (768 misses); row 1, one L1 size further on, misses throughout
   its iteration 0 (another 1024), the probe starts the steady phase at
   once, and iteration 4 installs. *)
let test_full_batch_then_install () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  let nrefs = 256 in
  let geoms = [ g 65536 32 1; g (1 lsl 20) 64 1 ] in
  let bases = Array.init nrefs (fun r -> r * 128) in
  let strides = Array.make nrefs 8 and outer_strides = Array.make nrefs 65536 in
  let writes = Array.make nrefs false in
  Alcotest.(check bool) "stats = reference cascade" true
    (rows_match ~evict:true geoms ~bases ~strides ~writes ~count:12 ~outer_strides
       ~outer_count:2);
  let f = Cs.Fast_sim.create geoms in
  Cs.Fast_sim.block f ~bases ~strides ~writes ~count:12 ~outer_strides ~outer_count:2;
  let m = Cs.Fast_sim.metrics f in
  Alcotest.(check int) "two sequential iterations" 2 m.Cs.Fast_sim.seq_iterations;
  Alcotest.(check int) "L1 misses" (2 * 3 * nrefs)
    (List.hd (Cs.Fast_sim.level_stats f)).Cs.Stats.misses

let test_stream_length () =
  let f = Cs.Fast_sim.create small_dm in
  Alcotest.check_raises "more accesses than the buffer holds"
    (Invalid_argument "Fast_sim.stream: n outside the buffer")
    (fun () -> Cs.Fast_sim.stream f [| 0; 1; 64 |] 2)

(* Crossing streams: 3-8 references with sub-line strides (12 and 24
   among them, a downward one and one of stride 0) that cross L1 lines
   at different iterations, over an L1 and an L2.
   Every base is placed so that its reference lands in one common L1 set
   at a chosen iteration in the middle of the first row, a multiple of
   the L1 size away from the others (give or take a few bytes), so that
   a crossing fills a line another reference is still on.  Some
   references repeat an earlier one (as C(i,j) is read and then
   written), right after it or after a reference that conflicts with it,
   so that a line can be written, evicted and refilled clean by another
   reference within one iteration, and duplicates cross together; some
   blocks' rows continue one another, which [block] joins into one
   row. *)
let gen_crossing =
  QCheck.Gen.(
    let* line_bits = int_range 5 6 in
    let* sets_bits = int_range 2 5 in
    let line = 1 lsl line_bits in
    let l1_size = line * (1 lsl sets_bits) in
    let* l2 =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 7 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
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
    (* a reference repeats an earlier one, or the one just before it,
       or the one just before a conflicting reference: the same stride,
       one L1 size away *)
    let rec more n acc =
      if n = 0 then return (List.rev acc)
      else
        let* kind = oneofl [ `Fresh; `Fresh; `Fresh; `Repeat; `Adjacent; `Around ] in
        match (kind, acc) with
        | `Repeat, _ ->
            let* next = oneofl acc in
            more (n - 1) (next :: acc)
        | `Adjacent, last :: _ -> more (n - 1) (last :: acc)
        | `Around, ((s, base) as last) :: _ when n >= 2 ->
            more (n - 2) (last :: (s, base + l1_size) :: acc)
        | _ ->
            let* next = oneofl [ 4; 8; 8; 12; 16; 24; -8; -8; -12 ] >>= shape in
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
      ( [ { Cs.Level.size = l1_size; line; assoc = 1 }; l2 ],
        ( Array.of_list bases,
          Array.of_list strides,
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let prop_crossing =
  QCheck.Test.make
    ~name:"crossing streams: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_rows gen_crossing)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* Clashing crossings: 2-6 references on a tiny L1 (1-8 sets of 8-32
   bytes) whose lines share L1 sets.  Each base is a random multiple of
   the L1 size away from one anchor, shifted by -2..2 lines and a few
   elements, so the references step into one another's sets at
   different iterations.  Strides are +-elem, 0, or at least a line;
   writes are random.  A crossing miss may be installed in the steady
   phase only in a set that no other reference's current line is in. *)
let gen_clashing =
  QCheck.Gen.(
    let* line_bits = int_range 3 5 in
    let* sets_bits = int_range 0 3 in
    let line = 1 lsl line_bits in
    let l1_size = line lsl sets_bits in
    let* l2 =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range 0 4 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
    let* elem = oneofl [ 4; 8 ] in
    let* nrefs = int_range 2 6 in
    let* anchor = int_range 0 (4 * l1_size) in
    let reference =
      let* k = int_range 0 3 and* lines = int_range (-2) 2 in
      let* off = int_range 0 ((line / elem) - 1) in
      let* stride = oneofl [ elem; -elem; elem; -elem; 0; line; -line; 2 * line; l1_size ] in
      return (anchor + (k * l1_size) + (lines * line) + (off * elem), stride)
    in
    let* refs = list_repeat nrefs reference in
    let* writes = list_repeat nrefs bool in
    let* count = int_range 1 120 in
    let* outer_count = int_range 1 3 in
    let* outer_strides =
      flatten_l
        (List.map (fun (_, s) -> oneofl [ 0; count * s; line; l1_size; -l1_size ]) refs)
    in
    return
      ( [ { Cs.Level.size = l1_size; line; assoc = 1 }; l2 ],
        ( Array.of_list (List.map fst refs),
          Array.of_list (List.map snd refs),
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let prop_clashing =
  QCheck.Test.make
    ~name:"clashing crossings: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_rows gen_clashing)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* Crossing calendars: [block]'s steady phase follows a per-row table of
   the iterations, modulo the period line / gcd(|s|, line), at which each
   reference changes line.  Lines of 16-64 bytes; strides that do not
   divide the line (+-12, +-20, +-24, 36, +-40, 100) as well as ones that
   do, and stride-0 references; row counts on both sides of four periods
   (shorter rows run access by access unless the rows share one
   calendar); 1-4 rows whose outer strides
   either keep every moving reference's offset within its line (one
   calendar serves every row) or shift it (each row needs its own), while
   the stride-0 references' bases move from row to row.  Bases sit a few lines apart or a multiple of the L1 size
   away from one anchor, so crossings hit, install in place and clash,
   and some references repeat an earlier one.  Every line is evicted at
   the end, so a dirty bit the fast side lost shows as a writeback. *)
let gen_calendar =
  QCheck.Gen.(
    let* line_bits = int_range 4 6 in
    let* sets_bits = int_range 1 4 in
    let line = 1 lsl line_bits in
    let l1_size = line lsl sets_bits in
    let* l2 =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 6 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
    let* nrefs = int_range 1 6 in
    let* anchor = int_range 0 (4 * l1_size) in
    let reference =
      let* stride =
        frequency
          [
            (3, oneofl [ 12; -12; 20; -20; 24; -24; 36; 40; -40; 100 ]);
            (4, oneofl [ 4; -4; 8; -8; 8; 16; -16 ]);
            (1, return 0);
          ]
      in
      let* k = int_range 0 3 and* lines = int_range (-2) 2 in
      let* off = int_range 0 ((line / 4) - 1) in
      return (anchor + (k * l1_size) + (lines * line) + (4 * off), stride)
    in
    (* some references repeat an earlier one, as C(i,j) is read and then
       written *)
    let rec more n acc =
      if n = 0 then return (List.rev acc)
      else
        let* repeat = oneofl [ false; false; false; true ] in
        let* next = if repeat && acc <> [] then oneofl acc else reference in
        more (n - 1) (next :: acc)
    in
    let* refs = more nrefs [] in
    let strides = List.map snd refs in
    let period =
      List.fold_left
        (fun p s ->
          let a = abs s in
          if a = 0 || a >= line then p else max p (line / (a land -a)))
        1 strides
    in
    let* count =
      oneof [ int_range 1 ((4 * period) - 1); int_range (4 * period) (12 * period) ]
    in
    let* outer_count = int_range 1 4 in
    let* keep = bool in
    let* outer_strides =
      flatten_l
        (List.map
           (fun s ->
             if s = 0 then oneofl [ 0; 4; -8; line + 4; l1_size ]
             else
               let* k = int_range (-3) 3 in
               let* shift = if keep then return 0 else oneofl [ 4; 8; 12; -4 ] in
               return ((k * line) + shift))
           strides)
    in
    let* writes = list_repeat nrefs bool in
    return
      ( [ { Cs.Level.size = l1_size; line; assoc = 1 }; l2 ],
        ( Array.of_list (List.map fst refs),
          Array.of_list strides,
          Array.of_list writes,
          count,
          Array.of_list outer_strides,
          outer_count ) ))

let prop_calendar =
  QCheck.Test.make
    ~name:"crossing calendars: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 600)
    (QCheck.make ~print:print_rows gen_calendar)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match ~evict:true h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* The clash proof: before a row's steady phase, [block] decides from
   the row's bases, strides and count over which iterations no two
   references may hold different lines in one L1 set, and runs its
   crossing passes without any other check there.  Each row mixes
   stride-0 references, references at a common stride and references at
   other strides, placed so that every pair's line distance passes
   within a line of a multiple of the L1 set count: equal-stride pairs
   sit a multiple of the L1 size apart, give or take a line; a pair with
   different strides starts so that it reaches such a distance around
   the middle of the row.  Some references duplicate an earlier one
   (same base, stride and outer stride), its write bit drawn anew, so
   the row holds read/read, read-then-write and write-then-read
   duplicates.  Rows are long enough for the steady phase; every line
   is evicted at the end, so a lost dirty bit shows as a writeback. *)
let gen_proof =
  QCheck.Gen.(
    let* line_bits = int_range 5 6 in
    let* sets_bits = int_range 1 4 in
    let line = 1 lsl line_bits in
    let l1_size = line lsl sets_bits in
    let* l2 =
      let* lbits = int_range line_bits 6 in
      let* sbits = int_range sets_bits 6 in
      return { Cs.Level.size = 1 lsl (lbits + sbits); line = 1 lsl lbits; assoc = 1 }
    in
    let* elem = oneofl [ 4; 8 ] in
    let* common = oneofl [ elem; -elem ] in
    let period = line / elem in
    let* count = int_range (4 * period) (16 * period) in
    let* anchor = int_range (8 * l1_size) (12 * l1_size) in
    let* nrefs = int_range 2 6 in
    let reference =
      let* stride =
        frequency
          [ (2, return 0); (3, return common); (2, oneofl [ -common; 2 * common; 3 * elem ]) ]
      in
      let* k = int_range (-2) 2 and* near = int_range (-line - elem) (line + elem) in
      (* where the distance to a common-stride reference is [k] L1 sizes
         and [near] bytes, at the middle of the row *)
      let mid = count / 2 * (common - stride) in
      return (anchor + (k * l1_size) + (near / elem * elem) + mid, stride)
    in
    let rec more n acc =
      if n = 0 then return (List.rev acc)
      else
        let* repeat = oneofl [ false; false; true ] in
        let* next =
          if repeat && acc <> [] then oneofl acc
          else
            let* base, stride = reference in
            let* outer = oneofl [ 0; line; l1_size; -l1_size; elem ] in
            return (base, stride, outer)
        in
        more (n - 1) (next :: acc)
    in
    let* refs = more nrefs [] in
    let* writes = list_repeat nrefs bool in
    let* outer_count = int_range 1 3 in
    return
      ( [ { Cs.Level.size = l1_size; line; assoc = 1 }; l2 ],
        ( Array.of_list (List.map (fun (b, _, _) -> b) refs),
          Array.of_list (List.map (fun (_, s, _) -> s) refs),
          Array.of_list writes,
          count,
          Array.of_list (List.map (fun (_, _, o) -> o) refs),
          outer_count ) ))

let prop_proof =
  QCheck.Test.make
    ~name:"clash proof: Fast_sim.block = per-access reference cascade"
    ~count:(Qcheck_env.count 600)
    (QCheck.make ~print:print_rows gen_proof)
    (fun (h, (bases, strides, writes, count, outer_strides, outer_count)) ->
      rows_match ~evict:true h ~bases ~strides ~writes ~count ~outer_strides ~outer_count)

(* Random interleavings of [block], [stream] and [access] calls on one
   simulator, against the per-access reference cascade, stats compared
   after every call and after an [evict_l1] sweep at the end.  Each
   kernel keeps its call's counts to itself until it returns, so a
   count that one exit of one kernel (a clash, an all-hit stop, the end
   of a row or of a buffer) fails to hand back shows in the next
   comparison.  Addresses stay within four L1 sizes of 0, so the calls
   meet each other's lines, dirty or clean. *)
type call =
  | Access of (int * bool) list
  | Stream of (int * bool) list
  | Block of (int array * int array * bool array * int * int array * int)

let gen_interleaved =
  QCheck.Gen.(
    let* geoms = gen_hierarchy in
    let l1 = List.hd geoms in
    let l1_size = l1.Cs.Level.size and line = l1.Cs.Level.line in
    let addr = map (fun k -> 4 * k) (int_range 0 (l1_size - 1)) in
    let accesses = list_size (int_range 1 40) (pair addr bool) in
    let block =
      let* nrefs = int_range 1 5 in
      let* bases = list_repeat nrefs addr in
      let* strides =
        list_repeat nrefs
          (oneofl [ 0; 4; 8; 8; -8; 12; 16; -16; 24; line; -line; 2 * line; l1_size ])
      in
      let* writes = list_repeat nrefs bool in
      let* count = oneof [ int_range 1 8; int_range 20 120 ] in
      let* outer_count = int_range 1 4 in
      let* outer_strides =
        flatten_l
          (List.map (fun s -> oneofl [ 0; count * s; line; l1_size; -l1_size; 8 ]) strides)
      in
      return
        (Block
           ( Array.of_list bases,
             Array.of_list strides,
             Array.of_list writes,
             count,
             Array.of_list outer_strides,
             outer_count ))
    in
    let* calls =
      list_size (int_range 1 8)
        (frequency
           [
             (1, map (fun l -> Access l) accesses);
             (1, map (fun l -> Stream l) accesses);
             (3, block);
           ])
    in
    return (geoms, calls))

let print_interleaved (geoms, calls) =
  let accesses l =
    String.concat ","
      (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "")) l)
  in
  Printf.sprintf "%s calls=[%s]" (print_hierarchy geoms)
    (String.concat "; "
       (List.map
          (function
            | Access l -> "access " ^ accesses l
            | Stream l -> "stream " ^ accesses l
            | Block segment -> "block " ^ print_segment segment)
          calls))

let prop_interleaved =
  QCheck.Test.make
    ~name:"interleaved block/stream/access calls = per-access reference cascade"
    ~count:(Qcheck_env.count 400)
    (QCheck.make ~print:print_interleaved gen_interleaved)
    (fun (geoms, calls) ->
      let h = Cs.Hierarchy.create geoms and f = Cs.Fast_sim.create geoms in
      let reference l = List.iter (fun (a, write) -> ignore (Cs.Hierarchy.access h ~write a)) l in
      List.for_all
        (fun call ->
          (match call with
          | Access l ->
              reference l;
              List.iter (fun (a, write) -> ignore (Cs.Fast_sim.access f ~write a)) l
          | Stream l ->
              reference l;
              let buf = Array.make (2 * List.length l) 0 in
              List.iteri
                (fun k (a, w) ->
                  buf.(2 * k) <- a;
                  buf.((2 * k) + 1) <- Bool.to_int w)
                l;
              Cs.Fast_sim.stream f buf (List.length l)
          | Block (bases, strides, writes, count, outer_strides, outer_count) ->
              for o = 0 to outer_count - 1 do
                for j = 0 to count - 1 do
                  Array.iteri
                    (fun r base ->
                      ignore
                        (Cs.Hierarchy.access h ~write:writes.(r)
                           (base + (o * outer_strides.(r)) + (j * strides.(r)))))
                    bases
                done
              done;
              Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count);
          stats_match h f)
        calls
      && (evict_l1 h f geoms;
          stats_match h f))

(* [rows_match ~evict:true] for a one-row block, and the work counters
   of the same block on a fresh fast simulator. *)
let block_then_evict geoms ~bases ~strides ~writes ~count =
  let outer_strides = Array.make (Array.length bases) 0 in
  let ok = rows_match ~evict:true geoms ~bases ~strides ~writes ~count ~outer_strides ~outer_count:1 in
  let f = Cs.Fast_sim.create geoms in
  Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count:1;
  (ok, Cs.Fast_sim.metrics f)

(* The probe: three streams a quarter of the L1 apart, the second one
   written.  Iteration 0 misses on every line, and leaves each resident
   (the written one dirty), so the steady phase starts at iteration 1 and
   installs every later crossing in place. *)
let test_probe_enters () =
  let ok, m =
    block_then_evict small_dm ~bases:[| 0; 264; 528 |] ~strides:[| 8; 8; 8 |]
      ~writes:[| false; true; false |] ~count:64
  in
  Alcotest.(check bool) "stats = reference cascade" true ok;
  Alcotest.(check int) "sequential iterations" 1 m.Cs.Fast_sim.seq_iterations;
  Alcotest.(check int) "bulk iterations" 63 m.Cs.Fast_sim.bulk_iterations

(* The probe must refuse when an iteration leaves a reference's line
   missing or a writer's line clean: here a later reference evicts an
   earlier one's line in the same iteration at every iteration (two
   streams one L1 size apart), and a written line is evicted dirty by a
   read one L1 size away and refilled clean by a read of its own.  (Under
   write-allocate a writer's line left clean always comes with another
   reference's line left missing.) *)
let test_probe_refuses () =
  let ok, m =
    block_then_evict small_dm ~bases:[| 0; 1024 |] ~strides:[| 8; 8 |]
      ~writes:[| false; false |] ~count:64
  in
  Alcotest.(check bool) "evicted: stats = reference cascade" true ok;
  Alcotest.(check int) "evicted: every iteration sequential" 64 m.Cs.Fast_sim.seq_iterations;
  let ok, m =
    block_then_evict small_dm ~bases:[| 0; 1024; 0 |] ~strides:[| 8; 8; 8 |]
      ~writes:[| true; false; false |] ~count:64
  in
  Alcotest.(check bool) "filled clean: stats = reference cascade" true ok;
  Alcotest.(check int) "filled clean: every iteration sequential" 64
    m.Cs.Fast_sim.seq_iterations

(* Found by the crossing-streams property, under a write policy the
   fast backend no longer simulates.  After an iteration run in place, a
   writing reference can stay on a line that is resident but clean (a
   line evicted and refilled by later reads): the bulk phase must not
   resume then, or that line's next eviction loses its writeback.  The
   case's references, on the two-level write-allocate machine. *)
let test_refilled_clean () =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  Alcotest.(check bool) "stats = reference cascade" true
    (rows_match
       [ g 256 32 1; g 2048 64 1 ]
       ~bases:[| 2262; 4538; 754; 742; 754; 3018 |]
       ~strides:[| 4; -8; 12; 12; 12; 0 |]
       ~writes:[| true; false; true; false; false; false |]
       ~count:350 ~outer_strides:[| 32; 0; 4200; -256; 0; 0 |] ~outer_count:4)

(* The matmul cells' shape (loops J, K, I): C(i,j) read and written and
   A(i,k) at stride 8, B(k,j) at stride 0, the K x I rows of a few
   columns j as one two-loop segment each, on the UltraSPARC geometry.
   C and A each cross an L1 line every fourth iteration, A two
   iterations after C.  A crossing that misses is installed in place
   unless the new line's set holds another reference's line, so most
   misses stay in the bulk path, and sequential iterations number at
   most half the L1 misses. *)
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
    (m.Cs.Fast_sim.seq_iterations <= l1_misses);
  Alcotest.(check bool)
    (Printf.sprintf "crossing misses mostly installed in place: %d sequential iterations, %d L1 misses"
       m.Cs.Fast_sim.seq_iterations l1_misses)
    true
    (m.Cs.Fast_sim.seq_iterations <= l1_misses / 2)

(* Two streams a quarter of the L1 apart that move two lines per
   iteration: every access crosses a line, so a crossing pass would cost
   what the iteration costs, and the row runs access by access although
   every iteration leaves both lines resident. *)
let test_dense_crossings () =
  let ok, m =
    block_then_evict small_dm ~bases:[| 0; 264 |] ~strides:[| 64; 64 |]
      ~writes:[| true; false |] ~count:64
  in
  Alcotest.(check bool) "stats = reference cascade" true ok;
  Alcotest.(check int) "every iteration sequential" 64 m.Cs.Fast_sim.seq_iterations

(* The cell the probe moves most: SHAL512 under GROUPPAD at n = 370 has
   about 2.7 L1 misses per iteration over 22 references, so almost no
   iteration hits throughout, but most leave every line resident.  At
   most a fifth of its iterations may run access by access, and its
   result must equal the reference backend's. *)
let test_shal_bulk () =
  let machine = Cs.Machine.ultrasparc in
  let program =
    (Option.get (Mlc_kernels.Registry.find "SHAL512").Mlc_kernels.Registry.build_sized) 370
  in
  let layout = Locality.Pipeline.layout_for machine Locality.Pipeline.Grouppad_l1 program in
  let sim = Cs.Fast_sim.create machine.Cs.Machine.geometries in
  let fast = Mlc_ir.Interp.run_sim sim machine layout program in
  Alcotest.(check bool) "result = reference backend" true
    (Mlc_ir.Interp.run ~backend:`Reference machine layout program = fast);
  let m = Cs.Fast_sim.metrics sim in
  let total = m.Cs.Fast_sim.bulk_iterations + m.Cs.Fast_sim.seq_iterations in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d iterations sequential" m.Cs.Fast_sim.seq_iterations total)
    true
    (5 * m.Cs.Fast_sim.seq_iterations < total)

(* The Alpha 21164 model's first two levels (8K/32B over 128K/64B), a
   second two-level machine for the tests below: the three-level model
   itself runs on the reference cascade. *)
let alpha_l1_l2 =
  let a = Cs.Machine.alpha21164 in
  {
    Cs.Machine.name = "Alpha 21164 L1 and L2";
    geometries = [ List.nth a.Cs.Machine.geometries 0; List.nth a.Cs.Machine.geometries 1 ];
    cost = { a.Cs.Machine.cost with Cs.Cost_model.hit_cycles = [| 1.0; 5.0 |] };
  }

(* The packed tag word at the ends of the address range, against the
   reference on both levels: -1, min_int and max_int (and their
   neighbours, which share lines with them), read and written, on the
   UltraSPARC geometry, the Alpha's first two levels and a smaller
   two-level one, then as blocks around the same addresses. *)
let test_extreme_addresses () =
  let addrs = [ -1; min_int; max_int; 0; -1; max_int - 8; min_int + 8; -4096; 1 lsl 40 ] in
  let trace = List.concat_map (fun a -> [ (a, false); (a, true); (a, false) ]) addrs in
  List.iter
    (fun geoms ->
      let h = Cs.Hierarchy.create geoms in
      let f = Cs.Fast_sim.create geoms in
      List.iter
        (fun (addr, write) ->
          Alcotest.(check int)
            (Printf.sprintf "hit level of %d" addr)
            (Cs.Hierarchy.access h ~write addr)
            (Cs.Fast_sim.access f ~write addr))
        trace;
      Alcotest.(check bool) "stats after the trace" true (stats_match h f);
      Alcotest.(check bool) "blocks at the range ends" true
        (rows_match geoms
           ~bases:[| -1; min_int; max_int; -64 |]
           ~strides:[| 8; 8; -8; 0 |]
           ~writes:[| true; false; true; false |]
           ~count:40 ~outer_strides:[| -8192; 16384; 0; 8 |] ~outer_count:3))
    [
      Cs.Machine.ultrasparc.Cs.Machine.geometries;
      alpha_l1_l2.Cs.Machine.geometries;
      [ { Cs.Level.size = 2048; line = 32; assoc = 1 }; { Cs.Level.size = 65536; line = 64; assoc = 1 } ];
    ]

(* Two L2s under a 1 KB, 32-byte-line L1. *)
let two_levels =
  let g size line assoc = { Cs.Level.size; line; assoc } in
  [ [ g 1024 32 1; g 8192 64 1 ]; [ g 1024 32 1; g 4096 32 1 ] ]

(* A crossing into a set that a later crossing reference leaves: two
   stride-8 streams, the second one line ahead of the first plus the L1
   size, so that at every crossing the first one's new line falls in the
   set of the second one's old line.  The second reference leaves that
   line in the same pass, so the install is no clash: each row runs its
   first iteration access by access and the rest in bulk.  Read, and
   written, where the evicted line is dirty. *)
let test_crossing_leaves () =
  List.iter
    (fun geoms ->
      List.iter
        (fun writes ->
          let bases = [| 0; 32 + 1024 |] and strides = [| 8; 8 |] in
          let outer_strides = [| 4096; 4096 |] and outer_count = 3 and count = 64 in
          let name = Printf.sprintf "%s, writes=%b" (print_hierarchy geoms) writes.(0) in
          Alcotest.(check bool) (name ^ ": stats = reference cascade") true
            (rows_match ~evict:true geoms ~bases ~strides ~writes ~count ~outer_strides
               ~outer_count);
          let f = Cs.Fast_sim.create geoms in
          Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count;
          let m = Cs.Fast_sim.metrics f in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d sequential iterations, at most 2 per row" name
               m.Cs.Fast_sim.seq_iterations)
            true
            (m.Cs.Fast_sim.seq_iterations <= 2 * outer_count))
        [ [| false; false |]; [| true; true |] ])
    two_levels

(* Rows whose remaining iterations have no crossing: 4-iteration rows of
   two stride-8 streams that start each row on a line boundary, as in
   the 4-row matmul tiles.  The steady phase starts at iteration 1 and
   reaches the row's end without a crossing, so the rest of the row is
   one bulk segment. *)
let test_no_crossing_left () =
  List.iter
    (fun geoms ->
      let bases = [| 0; 2048 + 512 |] and strides = [| 8; 8 |] in
      let writes = [| false; true |] and outer_strides = [| 800; 800 |] in
      let count = 4 and outer_count = 12 in
      let name = print_hierarchy geoms in
      Alcotest.(check bool) (name ^ ": stats = reference cascade") true
        (rows_match ~evict:true geoms ~bases ~strides ~writes ~count ~outer_strides
           ~outer_count);
      let f = Cs.Fast_sim.create geoms in
      Cs.Fast_sim.block f ~bases ~strides ~writes ~count ~outer_strides ~outer_count;
      let m = Cs.Fast_sim.metrics f in
      Alcotest.(check int) (name ^ ": sequential iterations") outer_count
        m.Cs.Fast_sim.seq_iterations;
      Alcotest.(check int) (name ^ ": bulk segments") outer_count m.Cs.Fast_sim.bulk_segments)
    two_levels

(* Associative levels, and level lists that are not two long, are the
   reference cascade's alone: [create] rejects them. *)
let test_create_rejects_assoc () =
  Alcotest.check_raises "2-way L2"
    (Invalid_argument
       "Fast_sim.create: L2 is 2-way, only direct-mapped levels are simulated")
    (fun () ->
      ignore
        (Cs.Fast_sim.create
           [ { Cs.Level.size = 1024; line = 32; assoc = 1 };
             { Cs.Level.size = 8192; line = 64; assoc = 2 } ]))

let test_create_rejects_depth () =
  List.iter
    (fun geoms ->
      let n = List.length geoms in
      Alcotest.check_raises
        (Printf.sprintf "%d levels" n)
        (Invalid_argument
           (Printf.sprintf "Fast_sim.create: %d levels, only two (L1 and L2) are simulated" n))
        (fun () -> ignore (Cs.Fast_sim.create geoms)))
    [ [ List.hd small_dm ]; Cs.Machine.alpha21164.Cs.Machine.geometries ]

(* --- whole-kernel equivalence ------------------------------------------- *)

(* End-to-end: Interp with backend:`Fast must reproduce the reference
   result record exactly — counters and derived floats — on real kernels,
   on the UltraSPARC model and on the Alpha model's first two levels,
   including gather kernels (IRR, BUK, CGM) that
   take the walker's per-access path.  BUK and CGM also run under a
   layout that starts every array on a multiple of the L1 size, so that
   their streams ping-pong in L1, and CGM under MULTILVLPAD's (which
   pads COLIDX at this size; it leaves BUK packed).  APPBT, APPLU and
   APPSP (downward loops, 5-component leading dimensions) run packed,
   under MULTILVLPAD and, for APPBT, with every array intra-padded; they and a
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
  let machines = [ Cs.Machine.ultrasparc; alpha_l1_l2 ] in
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
      ("embar4096", Mlc_kernels.Nas.embar 4096, initial);
      ("irr6000: 36K accesses in one loop, the walker's buffer refilled", Mlc_kernels.Livermore.irr 6000, initial);
      ("irr6000 L1-aligned", Mlc_kernels.Livermore.irr 6000, aligned);
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
            prop_stream;
            prop_block_equivalence;
            prop_ping_pong;
            prop_rows;
            prop_crossing;
            prop_clashing;
            prop_calendar;
            prop_proof;
            prop_interleaved;
          ] );
      ( "rows",
        [
          Alcotest.test_case "more L1 misses than the batch holds" `Quick
            test_rows_overflow_batch;
          Alcotest.test_case "outer_strides length mismatch" `Quick
            test_rows_length_mismatch;
          Alcotest.test_case "1100 references: more than the batch holds" `Quick
            test_wide_block;
          Alcotest.test_case "a full batch, then an in-place install" `Quick
            test_full_batch_then_install;
          Alcotest.test_case "stream: n beyond the buffer" `Quick test_stream_length;
          Alcotest.test_case "matmul rows: crossings run in place" `Quick
            test_matmul_rows;
          Alcotest.test_case "in place: a writer's line filled clean" `Quick
            test_refilled_clean;
          Alcotest.test_case "packed tags at -1, min_int, max_int" `Quick
            test_extreme_addresses;
          Alcotest.test_case "probe: a first iteration that leaves every line resident" `Quick
            test_probe_enters;
          Alcotest.test_case "probe: a line evicted or filled clean in the iteration" `Quick
            test_probe_refuses;
          Alcotest.test_case "dense crossings run access by access" `Quick
            test_dense_crossings;
          Alcotest.test_case "SHAL512 n=370 GROUPPAD: under a fifth sequential" `Quick
            test_shal_bulk;
          Alcotest.test_case "a crossing into a set a crossing reference leaves" `Quick
            test_crossing_leaves;
          Alcotest.test_case "rows with no crossing left" `Quick test_no_crossing_left;
        ] );
      ( "create",
        [
          Alcotest.test_case "a 2-way level is rejected" `Quick test_create_rejects_assoc;
          Alcotest.test_case "one level and three levels are rejected" `Quick
            test_create_rejects_depth;
        ] );
      ( "kernels",
        [ Alcotest.test_case "Interp fast = reference" `Quick test_kernel_equivalence ] );
    ]
