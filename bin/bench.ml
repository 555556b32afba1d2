(* mlc bench: regenerates every table and figure of the paper's
   evaluation (Section 6).

     mlc bench                  -- every default section
     mlc bench figure9          -- one artifact
     mlc bench fast             -- reduced sweeps

   A simulating section is data: the job specs it needs, and a pure
   function from a lookup (spec -> result) to the tables, series and text
   it prints.  [main] runs each one: it submits, in one batch, the specs
   no earlier section of this invocation has run (keyed by
   [Job.canonical]), keeps every result to the end of the run, and prints
   the blocks through [Report].  Jobs run on the experiment engine
   (lib/engine), a domain pool behind the result cache that `mlc sweep`
   shares.  Results are read by spec, so stdout is byte-identical for any
   `--jobs N`; timing and progress go to stderr.  The options are those
   of every `mlc` subcommand (lib/cli).

   Sections:
     table1   - the program inventory (Table 1)
     figure9  - PAD vs MULTILVLPAD: miss rates + model-time improvements
     figure10 - GROUPPAD vs GROUPPAD+L2MAXPAD on the group-reuse programs
     figure11 - miss rates over problem sizes 250-520 (EXPL, SHAL)
     figure12 - change in L2/memory refs and miss rates from fusion (EXPL)
     figure13 - MFLOPS of tiled matrix multiply over matrix sizes
     tiles    - euc vs LRW vs TSS tile selection on L1-tiled matmul
     predict  - analytical miss prediction vs the simulator
     ablation - extra studies (associativity, 3-level hierarchy,
                Song-Li time tiling, write policy, footnote-1 prefetch)
     bechamel - real wall-clock timings of the native kernels (timed:
                run only as `mlc bench bechamel`, because measured times
                are nondeterministic)
     fastsim  - reference vs fast simulator backend, wall clock (timed,
                for the same reason; writes BENCH_fastsim.json)

   A machine-readable record of the run (wall time per section, jobs/sec,
   cache hit rate) is written to BENCH_engine.json.

   Simulated "execution time" uses the UltraSparc-flavoured cost model
   (see DESIGN.md): the paper's own conclusion — miss-rate wins rarely
   move wall-clock time — shows up as small percentages here too. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality
module E = Mlc_engine
module Obs = Mlc_obs.Obs
module Json = Mlc_obs.Json
module Cli = Mlc_cli.Cli

let machine = Cs.Machine.ultrasparc

(* --- run context -------------------------------------------------------- *)

(* What the run reads of the command line, fixed before any section runs.
   [backend] is the simulator of every submitted job: fast is the
   default, and the differential suite and the fastsim section hold the
   two backends to identical results.  [obs] is one buffer for the whole
   run (--trace/--metrics); the engine merges per-job buffers into it
   deterministically. *)
type ctx = {
  fast : bool;
  jobs : int;
  backend : Interp.backend;
  cache : E.Cache.t option;
  progress : E.Progress.t;
  obs : Obs.Buf.t option;
}

(* --- sections as data ----------------------------------------------------- *)

(* A block of a section's output prints through [Report] when called: a
   table, a series over the problem size N, or a line of text. *)
let table ~title ~columns rows () = L.Report.table ~title ~columns rows

let series ~title ~labels points () = L.Report.series ~title ~x_label:"N" ~labels points

(* A simulating section: every spec it reads, and a pure function from
   their results to the blocks it prints.  [render]'s lookup answers each
   spec of [specs]. *)
type plan = {
  specs : E.Job.spec list;
  render : (E.Job.spec -> E.Job.result) -> (unit -> unit) list;
}

(* A simulating section is a plan for a mode ([fast] or full).  A timed
   section measures real wall-clock time, so its output can never be
   byte-identical across runs: it runs only when asked for by name. *)
type section = Plan of (bool -> plan) | Timed of (ctx -> unit)

(* One [block] with a row per item, then [text] if given: row [x] reads
   the results of [cells x]. *)
let tabulate ?text block items ~cells row =
  {
    specs = List.concat_map cells items;
    render =
      (fun result ->
        block (List.map (fun x -> row x result) items)
        :: Option.to_list (Option.map (fun t () -> print_endline t) text));
  }

(* Several plans printed as one section, in order. *)
let concat plans =
  {
    specs = List.concat_map (fun p -> p.specs) plans;
    render = (fun result -> List.concat_map (fun p -> p.render result) plans);
  }

(* Fast mode's reduced problem size. *)
let size fast n = if fast then max 64 (n / 4) else n

(* lo, lo + step, ... up to hi. *)
let range ~lo ~hi ~step = List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step))

(* Per-level miss rate in percent (level 0 = L1). *)
let mrate (r : E.Job.result) level =
  100.0 *. List.nth r.E.Job.interp.Interp.miss_rates level

(* A table row: [name], the miss rate of spec [base] and of each of specs
   [others] at each of [levels] (level by level), then each of [others]'
   model-time improvement over [base] (percent, positive = faster). *)
let rate_row ~levels name result base others =
  let rate level s = L.Report.pct (mrate (result s) level) in
  let cycles s = (result s).E.Job.interp.Interp.cycles in
  let dtime s = Cs.Cost_model.improvement ~orig:(cycles base) ~opt:(cycles s) in
  name
  :: List.concat_map (fun level -> List.map (rate level) (base :: others)) levels
  @ List.map (fun s -> L.Report.pct (dtime s)) others

(* A series point: [n] and the MFLOPS of each of [specs]. *)
let mflops_point (n, specs) result =
  (n, List.map (fun s -> (result s).E.Job.interp.Interp.mflops) specs)

let strategy s = E.Job.Strategy s

let write_json path v =
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string v))

let tiled_matmul n (t : L.Tile_size.tile) =
  E.Job.Tiled_matmul { n; h = t.height; w = t.width }

(* Table 1 program [name] at problem size [n]. *)
let registry name n = E.Job.Registry { name; n = Some n }

(* Program [p] simulated on its packed layout. *)
let initial p = E.Job.simulate ~layout:E.Job.Initial p

(* ----------------------------------------------------------------- *)
(* Table 1                                                            *)
(* ----------------------------------------------------------------- *)

let table1 _ =
  tabulate
    (table ~title:"Table 1: test programs"
       ~columns:[ "Program"; "Description"; "Suite"; "Paper LoC"; "Arrays"; "Nests" ])
    K.Registry.all
    ~cells:(fun _ -> [])
    (fun (e : K.Registry.entry) _ ->
      let p = e.K.Registry.build () in
      [
        e.K.Registry.name;
        e.K.Registry.description;
        K.Registry.category_name e.K.Registry.category;
        string_of_int e.K.Registry.paper_lines;
        string_of_int (List.length p.Program.arrays);
        string_of_int (List.length p.Program.nests);
      ])

(* ----------------------------------------------------------------- *)
(* Figures 9 and 10: one miss-rate table per pair of padding passes    *)
(* ----------------------------------------------------------------- *)

(* Per program: L1 and L2 miss rates of the original and the two
   optimized layouts, and the optimized layouts' model-time
   improvements. *)
let level_table ~title ~expected ~strategies programs =
  let cell p s = E.Job.simulate ~layout:(strategy s) p in
  tabulate ~text:expected
    (table ~title
       ~columns:
         [
           "program";
           "L1 Orig"; "L1 w/L1"; "L1 w/L1&L2";
           "L2 Orig"; "L2 w/L1"; "L2 w/L1&L2";
           "dT w/L1"; "dT w/L1&L2";
         ])
    programs
    ~cells:(fun (_, p) -> List.map (cell p) (L.Pipeline.Original :: strategies))
    (fun (name, p) result ->
      rate_row ~levels:[ 0; 1 ] name result (cell p L.Pipeline.Original)
        (List.map (cell p) strategies))

let fig9_size fast name =
  if not fast then None
  else
    match name with
    | "EXPL512" | "JACOBI512" | "SHAL512" | "HYDRO2D" | "SWIM" | "ADI32" | "LINPACKD" ->
        Some 128
    | "IRR500K" -> Some 100_000
    | "BUK" | "EMBAR" -> Some 250_000
    | "CGM" -> Some 20_000
    | "FFTPDE" -> Some 65_536
    | _ -> None

let figure9 fast =
  level_table
    ~title:
      "Figure 9: PAD (L1 Opt) and MULTILVLPAD (L1&L2 Opt) — miss rates and \
       model-time improvement"
    ~expected:
      "\nExpected shape (paper): L1-only PAD already recovers most of the L2\n\
       miss-rate reduction; MULTILVLPAD is only slightly better on L2 (mostly\n\
       EXPL); L1 rates are unaffected by the L2 pass; time deltas are small."
    ~strategies:[ L.Pipeline.Pad_l1; L.Pipeline.Pad_multilevel ]
    (List.map
       (fun (e : K.Registry.entry) ->
         ( String.lowercase_ascii e.K.Registry.name,
           E.Job.Registry
             { name = e.K.Registry.name; n = fig9_size fast e.K.Registry.name } ))
       K.Registry.all)

let figure10 fast =
  level_table
    ~title:"Figure 10: GROUPPAD (L1 Opt) with and without L2MAXPAD (L1&L2 Opt)"
    ~expected:
      "\nExpected shape (paper): optimizing for the L2 cache in addition to L1\n\
       helps in few programs (EXPL benefits on L2); L1 miss rates are not\n\
       adversely affected; execution-time changes stay small."
    ~strategies:[ L.Pipeline.Grouppad_l1; L.Pipeline.Grouppad_l1_l2 ]
    (List.map
       (fun (label, name, n) -> (label, registry name (size fast n)))
       [
         ("expl512", "EXPL512", 512);
         ("jacobi512", "JACOBI512", 512);
         ("shal512", "SHAL512", 512);
         ("swim", "SWIM", 512);
         ("tomcatv", "TOMCATV", 257);
       ])

(* ----------------------------------------------------------------- *)
(* Figure 11: problem-size sweep                                      *)
(* ----------------------------------------------------------------- *)

let figure11 fast =
  let sizes = range ~lo:250 ~hi:520 ~step:(if fast then 30 else 3) in
  let strategies = [ L.Pipeline.Grouppad_l1; L.Pipeline.Grouppad_l1_l2 ] in
  let sweep ?text (label, name) =
    let cell n s = E.Job.simulate ~layout:(strategy s) (registry name n) in
    tabulate ?text
      (series
         ~title:(Printf.sprintf "Figure 11 (%s): miss rates over problem sizes" label)
         ~labels:[ "L1 w/L1Opt"; "L2 w/L1Opt"; "L1 w/L1&L2"; "L2 w/L1&L2" ])
      sizes
      ~cells:(fun n -> List.map (cell n) strategies)
      (fun n result ->
        let rates s = [ mrate (result (cell n s)) 0; mrate (result (cell n s)) 1 ] in
        (n, List.concat_map rates strategies))
  in
  concat
    [
      sweep ("EXPL", "EXPL512");
      sweep ("SHAL", "SHAL512")
        ~text:
          "\nExpected shape (paper): L1 curves of the two versions coincide; the\n\
           L1-only version shows clusters of sizes where the L2 miss rate spikes\n\
           by a few percent; the L1&L2 version's L2 curve stays flat.";
    ]

(* ----------------------------------------------------------------- *)
(* Figure 12: loop fusion on EXPL                                     *)
(* ----------------------------------------------------------------- *)

let figure12 fast =
  (* Fusion legality is decided in the submitting domain (it is a static
     dependence test, independent of the sweep's simulation cost); the
     model accounting and both simulations run as jobs.  Peeled
     prologue/epilogue iterations are excluded from the static counts, so
     the fused core is the nest with the largest body. *)
  let legal =
    List.filter
      (fun n ->
        match L.Fusion.fuse_program (K.Livermore.expl n) 1 with
        | exception L.Fusion.Illegal _ -> false
        | _ -> true)
      (range ~lo:250 ~hi:700 ~step:(if fast then 50 else 6))
  in
  let pair n = E.Job.fusion_pair ~at:1 (registry "EXPL512" n) in
  let change n result =
    let ro = result (fst (pair n)) and rf = result (snd (pair n)) in
    let co = Option.get ro.E.Job.counts and cf = Option.get rf.E.Job.counts in
    let d_l2 = cf.An.Fusion_model.l2_refs - co.An.Fusion_model.l2_refs in
    let d_mem = cf.An.Fusion_model.memory_refs - co.An.Fusion_model.memory_refs in
    (* Simulated miss-rate change, normalized to the original version's
       reference count as in the paper. *)
    let refs_o = float_of_int ro.E.Job.interp.Interp.total_refs in
    let miss (r : E.Job.result) i =
      float_of_int (List.nth r.E.Job.interp.Interp.misses i)
    in
    let d_l1_rate = 100.0 *. (miss rf 0 -. miss ro 0) /. refs_o in
    let d_l2_rate = 100.0 *. (miss rf 1 -. miss ro 1) /. refs_o in
    (n, [ float_of_int d_l2; float_of_int d_mem; d_l1_rate; d_l2_rate ])
  in
  tabulate
    ~text:
      "\nExpected shape (paper): memory references drop by a constant as a\n\
       result of fusion while the change in L2 references oscillates >= 0\n\
       depending on problem size; the simulated L1 miss-rate change tracks\n\
       the L2-reference count and the L2 miss-rate change tracks the memory\n\
       reference count (flat, negative)."
    (series
       ~title:
         "Figure 12: change in L2 refs, memory refs (model) and miss rates \
          (simulated) from fusing EXPL nests 76+77"
       ~labels:[ "dL2refs"; "dMemRefs"; "dL1miss%"; "dL2miss%" ])
    legal
    ~cells:(fun n -> [ fst (pair n); snd (pair n) ])
    change

(* ----------------------------------------------------------------- *)
(* Figure 13: tiled matrix multiplication                             *)
(* ----------------------------------------------------------------- *)

let policy_tiles n =
  L.Tile_size.policy_tiles ~l1:(Cs.Machine.s1 machine)
    ~l2:(Cs.Machine.level_size machine 1) ~elem:8 n

let figure13 fast =
  (* per size: the untiled multiply, then the multiply under each policy's
     tile *)
  let rows =
    List.map
      (fun n ->
        let tiled = List.map (fun (_, t) -> tiled_matmul n t) (policy_tiles n) in
        (n, List.map initial (E.Job.Matmul { n } :: tiled)))
      (range ~lo:100 ~hi:400 ~step:(if fast then 72 else 18))
  in
  let labels = List.map fst (policy_tiles 100) in
  concat
    [
      tabulate
        (series
           ~title:
             "Figure 13: simulated MFLOPS of matrix multiply under tile-size \
              policies"
           ~labels:("Orig" :: labels))
        rows ~cells:snd mflops_point;
      (* also print the chosen tiles for reference *)
      tabulate
        ~text:
          "\nExpected shape (paper): L1-sized tiles give the best and steadiest\n\
           performance; L2-sized tiles only help once matrices exceed the L2\n\
           cache and never beat L1 tiles; 2xL1/4xL1 fall in between (most L1\n\
           benefit is lost as soon as tiles exceed the L1 cache)."
        (table ~title:"Figure 13 (tiles chosen by eucPad-style selection)"
           ~columns:("N" :: labels))
        [ 100; 200; 300; 400 ]
        ~cells:(fun _ -> [])
        (fun n _ ->
          string_of_int n
          :: List.map
               (fun (_, (t : L.Tile_size.tile)) ->
                 Printf.sprintf "%dx%d" t.height t.width)
               (policy_tiles n));
    ]

(* ----------------------------------------------------------------- *)
(* Ablations beyond the paper's figures                               *)
(* ----------------------------------------------------------------- *)

let ablation fast =
  (* (a) associativity: run PAD-optimized layouts on k-way machines, and
     compare the direct-mapped assumption against an explicitly
     associativity-aware PAD.  The paper's claim: treating k-way caches
     as direct-mapped loses almost nothing. *)
  let jacobi = registry "JACOBI512" (if fast then 128 else 512) in
  let on_k k layout =
    let m =
      { (E.Job.machine "ultrasparc") with E.Job.assoc = (if k = 1 then None else Some k) }
    in
    E.Job.simulate ~machine:m ~layout jacobi
  in
  let padded k =
    let size = Cs.Machine.s1 machine and line = Cs.Machine.level_line machine 0 in
    [ strategy L.Pipeline.Pad_l1; E.Job.Pad_assoc { size; line; assoc = k } ]
  in
  let associativity =
    tabulate
      (table
         ~title:
           "Ablation: direct-mapped PAD vs associativity-aware PAD on k-way \
            caches (JACOBI)"
         ~columns:
           [ "assoc"; "L1 Orig"; "L1 PAD(dm)"; "L1 PAD(assoc)"; "dT dm"; "dT assoc" ])
      [ 1; 2; 4 ]
      ~cells:(fun k -> List.map (on_k k) (E.Job.Initial :: padded k))
      (fun k result ->
        rate_row ~levels:[ 0 ] (string_of_int k) result (on_k k E.Job.Initial)
          (List.map (on_k k) (padded k)))
  in
  (* (b) three-level hierarchy: MULTILVLPAD with (S1, Lmax) on an
     Alpha-21164-style machine. *)
  let expl = registry "EXPL512" (if fast then 128 else 512) in
  let on_alpha s =
    E.Job.simulate ~machine:(E.Job.machine "alpha") ~layout:(strategy s) expl
  in
  let three_level =
    tabulate
      (table ~title:"Ablation: three-level hierarchy (8K/128K/2M), EXPL"
         ~columns:[ "version"; "L1"; "L2"; "L3" ])
      [
        ("Orig", L.Pipeline.Original);
        ("PAD(L1)", L.Pipeline.Pad_l1);
        ("MULTILVLPAD", L.Pipeline.Pad_multilevel);
      ]
      ~cells:(fun (_, s) -> [ on_alpha s ])
      (fun (label, s) result -> rate_row ~levels:[ 0; 1; 2 ] label result (on_alpha s) [])
  in
  (* (c) the Section 5 exception (Song & Li): tiling across time steps.
     The tile's working set is block+steps columns — too big for L1 at
     any block size — so the tile targets the L2 cache. *)
  let n = if fast then 256 else 512 in
  let steps = 8 in
  let col_bytes = n * 8 in
  let l2_cols = Cs.Machine.level_size machine 1 / col_bytes in
  (* the untiled sweeps, then one tiling per block size: label, program
     and tile working set *)
  let versions =
    ("untiled sweeps", E.Job.Time_sweep { n; steps }, "-")
    :: List.map
         (fun (label, block) ->
           let cols = K.Time_kernels.tile_columns ~steps ~block in
           ( label,
             E.Job.Time_tiled { n; steps; block },
             Printf.sprintf "%d cols = %dK" cols (cols * col_bytes / 1024) ))
         [
           ("tiny block (L1-ish)", 1);
           ("half-L2 block", max 1 ((l2_cols / 2) - steps));
           ("over-L2 block", 2 * l2_cols);
         ]
  in
  let time_tiling =
    tabulate
      ~text:
        "\nExpected shape (paper, Section 5): no time-step tile fits the L1\n\
         cache, so the tiling targets L2; blocks sized for the L2 beat both\n\
         the untiled sweeps and over-L2 blocks."
      (table
         ~title:
           (Printf.sprintf
              "Ablation (Song & Li exception): time-step tiling of a %dx%d sweep, \
               %d steps — tile working set vs cycles/ref"
              n n steps)
         ~columns:[ "version"; "tile working set"; "cycles/ref" ])
      versions
      ~cells:(fun (_, p, _) -> [ initial p ])
      (fun (label, p, working_set) result ->
        let r = (result (initial p)).E.Job.interp in
        let per_ref = r.Interp.cycles /. float_of_int r.Interp.total_refs in
        [ label; working_set; Printf.sprintf "%.3f" per_ref ])
  in
  (* (d) write policy: the paper's simulator allocates on writes; check
     how much the policy choice moves the reported miss rates. *)
  let allocating wa =
    E.Job.simulate
      ~machine:{ (E.Job.machine "ultrasparc") with E.Job.write_allocate = Some wa }
      ~layout:(strategy L.Pipeline.Pad_l1) jacobi
  in
  let write_policy =
    tabulate
      (table ~title:"Ablation: write policy on padded JACOBI (miss rates + writebacks)"
         ~columns:[ "policy"; "L1"; "L2"; "writebacks" ])
      [ ("write-allocate (paper)", true); ("no-allocate", false) ]
      ~cells:(fun (_, wa) -> [ allocating wa ])
      (fun (label, wa) result ->
        rate_row ~levels:[ 0; 1 ] label result (allocating wa) []
        @ [ string_of_int (result (allocating wa)).E.Job.interp.Interp.writebacks ])
  in
  (* (e) hardware next-line prefetching — the paper's footnote 1: DOT
     improved "due to the differences in the ability of the underlying
     memory system to handle multiple outstanding cache misses, since the
     two input vectors were padded 64 instead of 32 bytes due to the
     longer L2 cache lines".  With a sequential prefetcher the mechanism
     is visible: PAD's one-line (32B) separation puts each vector's
     prefetch stream on top of the other vector's demand stream, while
     MULTILVLPAD's Lmax = 64B separation keeps the streams disjoint. *)
  let dot = registry "DOT256" (if fast then 65_536 else 262_144) in
  let prefetching ((_, layout), (_, pf)) =
    E.Job.simulate
      ~machine:{ (E.Job.machine "ultrasparc") with E.Job.prefetch_levels = pf }
      ~layout dot
  in
  let prefetch =
    tabulate
      ~text:
        "\nExpected shape (paper footnote 1): prefetching cannot rescue the\n\
         packed ping-pong; under PAD's minimal 32B pads the two vectors'\n\
         prefetch and demand streams collide and prefetching helps nothing;\n\
         under MULTILVLPAD's 64B (Lmax) pads the streams are disjoint and\n\
         prefetching removes essentially every miss — the mechanism behind\n\
         the paper's DOT256 timing anomaly."
      (table
         ~title:
           "Ablation (footnote 1): next-line prefetching on DOT under the three \
            layouts"
         ~columns:[ "configuration"; "L1"; "L2" ])
      (List.concat_map
         (fun layout ->
           List.map (fun pf -> (layout, pf))
             [ ("no prefetch", []); ("next-line prefetch", [ 0; 1 ]) ])
         [
           ("packed", E.Job.Initial);
           ("PAD (32B pads)", strategy L.Pipeline.Pad_l1);
           ("MULTILVLPAD (64B pads)", strategy L.Pipeline.Pad_multilevel);
         ])
      ~cells:(fun config -> [ prefetching config ])
      (fun (((label, _), (pf_label, _)) as config) result ->
        rate_row ~levels:[ 0; 1 ] (label ^ ", " ^ pf_label) result
          (prefetching config) [])
  in
  concat [ associativity; three_level; time_tiling; write_policy; prefetch ]

(* ----------------------------------------------------------------- *)
(* Tiling-algorithm comparison (the paper's CC'99 companion study)    *)
(* ----------------------------------------------------------------- *)

let tiles fast =
  let elem = 8 and l1 = Cs.Machine.s1 machine in
  let algorithms =
    [
      ("euc", fun n -> L.Tile_size.select ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n ());
      ("LRW", fun n -> L.Tile_size.lrw ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
      ("TSS", fun n -> L.Tile_size.tss ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
    ]
  in
  (* per size: the multiply under each algorithm's tile *)
  let rows =
    List.map
      (fun n ->
        (n, List.map (fun (_, pick) -> initial (tiled_matmul n (pick n))) algorithms))
      (range ~lo:100 ~hi:400 ~step:(if fast then 100 else 25))
  in
  tabulate
    ~text:
      "\nExpected shape (Rivera & Tseng CC'99): all three stay within a few\n\
       MFLOPS of each other at most sizes — conflict-free tile selection\n\
       matters much more than the exact objective — with the rectangular\n\
       algorithms (euc/TSS) pulling ahead at sizes where non-conflicting\n\
       squares are forced to be tiny."
    (series
       ~title:
         "Tile-size selection algorithms on L1-targeted matmul (simulated \
          MFLOPS) — euc (miss-fraction score) vs LRW (largest square) vs TSS \
          (largest area)"
       ~labels:(List.map fst algorithms))
    rows ~cells:snd mflops_point

(* ----------------------------------------------------------------- *)
(* Analytical predictor vs simulator                                  *)
(* ----------------------------------------------------------------- *)

let predict fast =
  let programs =
    [
      ("jacobi", registry "JACOBI512" (size fast 512));
      ("expl", registry "EXPL512" (size fast 512));
      ("adi", registry "ADI32" (size fast 256));
      ("dot", registry "DOT256" (size fast 262_144));
      ("shal", registry "SHAL512" (size fast 256));
      ("figure2", E.Job.Paper { name = "figure2"; n = size fast 512 });
    ]
  in
  let versions =
    [ ("packed", L.Pipeline.Original); ("padded", L.Pipeline.Pad_l1) ]
  in
  let cell ((_, p), (_, s)) = E.Job.simulate ~predict:true ~layout:(strategy s) p in
  tabulate
    ~text:
      "\nThe predictor exists to rank choices the way the paper's compiler\n\
       does; ratios within a small factor of 1 and consistent orderings\n\
       (padded < packed on both columns) are the success criterion."
    (table
       ~title:
         "Analytical miss prediction vs simulation (L1): the static model the \
          compiler decides with"
       ~columns:[ "program"; "L1 simulated"; "L1 predicted"; "ratio" ])
    (List.concat_map (fun program -> List.map (fun v -> (program, v)) versions) programs)
    ~cells:(fun x -> [ cell x ])
    (fun (((name, _), (vlabel, _)) as x) result ->
      let r = result (cell x) in
      let sim = r.E.Job.interp in
      let predicted = Option.get r.E.Job.predicted in
      let refs = float_of_int sim.Interp.total_refs in
      [
        name ^ " " ^ vlabel;
        L.Report.pct (mrate r 0);
        L.Report.pct (100.0 *. List.hd predicted /. refs);
        L.Report.f2
          (List.hd predicted /. float_of_int (max 1 (List.hd sim.Interp.misses)));
      ])

(* ----------------------------------------------------------------- *)
(* Bechamel: real wall-clock timings of the native kernels            *)
(* ----------------------------------------------------------------- *)

let bechamel ctx =
  let open Bechamel in
  let open Toolkit in
  L.Report.section "Bechamel: native-kernel wall-clock timings";
  let run_group name tests =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
    in
    let raw = Benchmark.all cfg instances (Test.make_grouped ~name tests) in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    let rows =
      Hashtbl.fold
        (fun test_name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (x :: _) -> x
            | _ -> nan
          in
          (test_name, ns) :: acc)
        results []
      |> List.sort compare
      |> List.map (fun (test_name, ns) ->
             [ test_name; Printf.sprintf "%.3f ms/run" (ns /. 1e6) ])
    in
    L.Report.table ~title:name ~columns:[ "test"; "time" ] rows
  in
  (* Figure 13 analogue: tiling policies, really executed. *)
  let n = if ctx.fast then 160 else 320 in
  let a = Mlc_native.Nat_matmul.create n and b = Mlc_native.Nat_matmul.create n in
  Mlc_native.Nat_matmul.random_fill ~seed:1 a;
  Mlc_native.Nat_matmul.random_fill ~seed:2 b;
  let c = Mlc_native.Nat_matmul.create n in
  let mat_test label f = Test.make ~name:label (Staged.stage f) in
  let tiles = policy_tiles n in
  run_group
    (Printf.sprintf "matmul %dx%d (real time)" n n)
    (mat_test "orig" (fun () -> Mlc_native.Nat_matmul.multiply ~c ~a ~b)
    :: mat_test "orig unrolled+scalar (footnote 2)" (fun () ->
           Mlc_native.Nat_matmul.multiply_unrolled ~c ~a ~b)
    :: List.map
         (fun (label, t) ->
           mat_test
             (Printf.sprintf "%s tile %dx%d" label t.L.Tile_size.height
                t.L.Tile_size.width)
             (fun () ->
               Mlc_native.Nat_matmul.multiply_tiled ~h:t.L.Tile_size.height
                 ~w:t.L.Tile_size.width ~c ~a ~b))
         tiles);
  (* Figure 12 analogue: fused vs separate EXPL updates. *)
  let n2 = if ctx.fast then 256 else 512 in
  let mk seed =
    let g = Mlc_native.Nat_stencil.create n2 in
    Mlc_native.Nat_stencil.random_fill ~seed g;
    g
  in
  let za = mk 1 and zb = mk 2 and zu = mk 3 and zv = mk 4 and zr = mk 5 and zz = mk 6 in
  run_group
    (Printf.sprintf "EXPL updates %dx%d (real time)" n2 n2)
    [
      mat_test "separate nests" (fun () ->
          Mlc_native.Nat_stencil.expl_separate ~za ~zb ~zu ~zv ~zr ~zz);
      mat_test "fused (shifted)" (fun () ->
          Mlc_native.Nat_stencil.expl_fused ~za ~zb ~zu ~zv ~zr ~zz);
    ];
  (* Figure 9 analogue: padded vs unpadded Jacobi columns. *)
  let mk_pair ld =
    let a = Mlc_native.Nat_stencil.create ?ld n2 in
    let b = Mlc_native.Nat_stencil.create ?ld n2 in
    Mlc_native.Nat_stencil.random_fill ~seed:3 b;
    (a, b)
  in
  let a0, b0 = mk_pair None in
  let a1, b1 = mk_pair (Some (n2 + 8)) in
  run_group
    (Printf.sprintf "jacobi %dx%d (real time)" n2 n2)
    [
      mat_test "packed columns" (fun () ->
          Mlc_native.Nat_stencil.jacobi ~steps:1 ~a:a0 ~b:b0);
      mat_test "padded columns" (fun () ->
          Mlc_native.Nat_stencil.jacobi ~steps:1 ~a:a1 ~b:b1);
    ]

(* ----------------------------------------------------------------- *)
(* fastsim: reference vs fast backend, cold, single worker            *)
(* ----------------------------------------------------------------- *)

(* Times the same cold job set on both backends (no cache, one domain,
   both hierarchy levels in play), one program at a time, each time the
   median of [fastsim_runs] runs per backend (reference, then fast, per
   round), checks the results agree exactly, and records each program's
   wall-clock times and the totals' ratio in BENCH_fastsim.json: the
   per-program times show which cells the bulk path serves and which
   run access by access.  Wall-clock output is nondeterministic, so like
   bechamel this section only runs when asked for by name. *)
let fastsim_json_path = "BENCH_fastsim.json"
let fastsim_runs = 5

let fastsim ctx =
  let n = if ctx.fast then 256 else 512 in
  let cases =
    [
      ("JACOBI512", L.Pipeline.Original);
      ("JACOBI512", L.Pipeline.Grouppad_l1);
      ("EXPL512", L.Pipeline.Original);
      ("EXPL512", L.Pipeline.Grouppad_l1_l2);
      ("SHAL512", L.Pipeline.Original);
    ]
  in
  let time be (name, strat) =
    let spec = E.Job.simulate ~backend:be ~layout:(strategy strat) (registry name n) in
    let t0 = Unix.gettimeofday () in
    let results = E.Engine.run ~progress:ctx.progress ~jobs:1 [| spec |] in
    (Unix.gettimeofday () -. t0, results.(0))
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let median l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let rows =
    List.map
      (fun ((name, strat) as case) ->
        let rounds =
          List.init fastsim_runs (fun _ ->
              let t_ref, a = time `Reference case in
              let t_fast, b = time `Fast case in
              if
                not
                  (a.E.Job.interp = b.E.Job.interp
                  && List.for_all2 Cs.Stats.equal a.E.Job.level_stats b.E.Job.level_stats)
              then failwith ("fastsim: backend results differ on " ^ a.E.Job.key);
              (t_ref, t_fast, b.E.Job.interp.Interp.total_refs))
        in
        let t_ref = median (List.map (fun (t, _, _) -> t) rounds)
        and t_fast = median (List.map (fun (_, t, _) -> t) rounds)
        and _, _, refs = List.hd rounds in
        (name ^ "/" ^ E.Job.strategy_tag strat, t_ref, t_fast, refs))
      cases
  in
  let t_ref = List.fold_left (fun acc (_, t, _, _) -> acc +. t) 0.0 rows in
  let t_fast = List.fold_left (fun acc (_, _, t, _) -> acc +. t) 0.0 rows in
  let speedup = ratio t_ref t_fast in
  let cell (program, a, b, _) =
    [ program; Printf.sprintf "%.2f" a; Printf.sprintf "%.2f" b;
      Printf.sprintf "%.2fx" (ratio a b) ]
  in
  L.Report.table
    ~title:
      (Printf.sprintf
         "Fast backend vs reference (cold, 1 worker, ultrasparc, n=%d)" n)
    ~columns:[ "program"; "reference (s)"; "fast (s)"; "speedup" ]
    (List.map cell rows @ [ cell ("total", t_ref, t_fast, ()) ]);
  (* both wall times and their ratio, for one program or the total *)
  let timing a b =
    [
      ("reference_wall_s", Json.fixed 3 a);
      ("fast_wall_s", Json.fixed 3 b);
      ("speedup", Json.fixed 2 (ratio a b));
    ]
  in
  write_json fastsim_json_path
    (Json.Obj
       ([
          ("machine", Json.String "ultrasparc");
          ("jobs", Json.Int 1);
          ("n", Json.Int n);
          ( "programs",
            Json.List
              (List.map
                 (fun (program, a, b, _) ->
                   Json.Obj (("program", Json.String program) :: timing a b))
                 rows) );
          ( "total_refs",
            Json.Int (List.fold_left (fun acc (_, _, _, refs) -> acc + refs) 0 rows) );
        ]
       @ timing t_ref t_fast));
  Printf.eprintf "[fastsim: reference %.2fs, fast %.2fs, %.2fx -> %s]\n%!"
    t_ref t_fast speedup fastsim_json_path

let sections =
  [
    ("table1", Plan table1);
    ("figure9", Plan figure9);
    ("figure10", Plan figure10);
    ("figure11", Plan figure11);
    ("figure12", Plan figure12);
    ("figure13", Plan figure13);
    ("tiles", Plan tiles);
    ("predict", Plan predict);
    ("ablation", Plan ablation);
    ("bechamel", Timed bechamel);
    ("fastsim", Timed fastsim);
  ]

let mode ctx = if ctx.fast then "fast" else "full"

let dump_json ctx section_times =
  let metrics buf =
    let counters = List.map (fun (k, v) -> (k, Json.Int v)) (Obs.Buf.counters buf) in
    ("metrics", Json.Obj counters)
  in
  write_json "BENCH_engine.json"
    (Json.Obj
       (Option.to_list (Option.map metrics ctx.obs)
       @ [
           ("mode", Json.String (mode ctx));
           ("backend", Json.String (Interp.backend_name ctx.backend));
           ("jobs", Json.Int ctx.jobs);
           ("cache", Json.Bool (Option.is_some ctx.cache));
           ( "models_version",
             Json.String
               (match ctx.cache with
               | Some c -> E.Cache.version c
               | None -> E.Cache.default_version ()) );
           ( "sections",
             Json.List
               (List.map
                  (fun (name, wall) ->
                    Json.Obj [ ("name", Json.String name); ("wall_s", Json.fixed 3 wall) ])
                  section_times) );
         ]
       @ E.Progress.json_fields ctx.progress))

let main words jobs backend cache obs_flags =
  let to_run =
    match List.filter (fun w -> w <> "fast") words with
    | [] -> List.filter (function _, Plan _ -> true | _, Timed _ -> false) sections
    | names -> List.map (fun w -> (w, List.assoc w sections)) names
  in
  let progress = E.Progress.create ~jobs () in
  Cli.with_obs ~span:"mlc:bench" obs_flags @@ fun obs ->
  let ctx = { fast = List.mem "fast" words; jobs; backend; cache; progress; obs } in
  Printf.printf "mlcache bench harness — %s mode\n" (mode ctx);
  Printf.eprintf "engine: %d worker domain%s, cache %s\n%!" jobs
    (if jobs = 1 then "" else "s")
    (match cache with
    | Some c ->
        Printf.sprintf "%s (models %s)" (E.Cache.dir c) (E.Cache.version c)
    | None -> "disabled");
  (* Every result of the run, by [Job.canonical] of its spec on the run's
     backend. *)
  let results = Hashtbl.create 256 in
  let key spec = E.Job.canonical { spec with E.Job.backend } in
  let result spec = Hashtbl.find results (key spec) in
  let run = function
    | Timed f -> f ctx
    | Plan plan ->
        let { specs; render } = plan ctx.fast in
        (* each spec once: none an earlier section ran, no repeat *)
        let fresh =
          List.fold_left
            (fun acc spec ->
              let k = key spec in
              if Hashtbl.mem results k || List.mem_assoc k acc then acc
              else (k, { spec with E.Job.backend }) :: acc)
            [] specs
        in
        let batch = Array.of_list (List.rev_map snd fresh) in
        Array.iter
          (fun (r : E.Job.result) -> Hashtbl.replace results r.E.Job.key r)
          (E.Engine.run ?cache ~progress ?obs ~jobs batch);
        List.iter (fun print -> print ()) (render result)
  in
  let section_times =
    List.map
      (fun (name, section) ->
        let t0 = Unix.gettimeofday () in
        (* With observability on, the engine's per-job buffers merge into
           the run's buffer under this span, so one trace covers the whole
           run. *)
        Obs.with_span ~cat:"bench" ("section:" ^ name) (fun () -> run section);
        let wall = Unix.gettimeofday () -. t0 in
        E.Progress.finish progress;
        Printf.eprintf "[%s done in %.1fs]\n%!" name wall;
        (name, wall))
      to_run
  in
  prerr_endline (E.Progress.summary progress);
  dump_json ctx section_times

let cmd =
  let open Cmdliner in
  let sections_arg =
    let doc =
      Printf.sprintf
        "$(b,fast) (reduced sweeps) and the sections \
         to run, in order: %s.  Default: every section except bechamel and \
         fastsim."
        (String.concat ", " (List.map fst sections))
    in
    let words = List.map (fun w -> (w, w)) ("fast" :: List.map fst sections) in
    Arg.(value & pos_all (enum words) [] & info [] ~docv:"SECTION" ~doc)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Regenerate the paper's tables and figures (Section 6) on the \
          parallel experiment engine.")
    Term.(
      const main $ sections_arg $ Cli.jobs [ "jobs" ] $ Cli.backend $ Cli.cache
      $ Cli.obs)
