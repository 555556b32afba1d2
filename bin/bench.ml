(* mlc bench: regenerates every table and figure of the paper's
   evaluation (Section 6).

     mlc bench                  -- every default section
     mlc bench figure9          -- one artifact
     mlc bench fast             -- reduced sweeps

   Every simulation cell is submitted as a job to the parallel experiment
   engine (lib/engine): jobs fan out over a domain pool and land in the
   content-addressed result cache that `mlc sweep` shares, so re-runs are
   nearly free and `--jobs N` scales the sweep across cores.  Results are
   merged in submission order, so stdout is byte-identical for any job
   count; all timing and progress output goes to stderr.  The options are
   the ones every `mlc` subcommand uses (lib/cli).

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
     bechamel - real wall-clock timings of the native kernels (opt-in:
                run `mlc bench bechamel`; excluded from the default set
                because measured times are nondeterministic)
     fastsim  - reference vs fast simulator backend, wall clock (opt-in
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

(* What every section reads of the command line, fixed before any section
   runs.  [backend] is the simulator of every submitted job: fast is the
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

let submit ctx specs =
  Array.to_list
    (E.Engine.run ?cache:ctx.cache ~progress:ctx.progress ?obs:ctx.obs
       ~jobs:ctx.jobs
       (Array.of_list
          (List.map (fun spec -> { spec with E.Job.backend = ctx.backend }) specs)))

(* One job [spec row col] per (row, column), submitted row-major in one
   batch; the results come back as one list per row. *)
let grid ctx rows cols spec =
  let results =
    Array.of_list (submit ctx (List.concat_map (fun r -> List.map (spec r) cols) rows))
  in
  let width = List.length cols in
  List.mapi (fun i _ -> Array.to_list (Array.sub results (i * width) width)) rows

(* Fast mode's reduced problem size. *)
let size ctx n = if ctx.fast then max 64 (n / 4) else n

(* lo, lo + step, ... up to hi. *)
let range ~lo ~hi ~step = List.init (((hi - lo) / step) + 1) (fun i -> lo + (i * step))

(* Per-level miss rate in percent (level 0 = L1). *)
let mrate (r : E.Job.result) level =
  100.0 *. List.nth r.E.Job.interp.Interp.miss_rates level

(* Model-time improvement (percent, positive = faster) over [baseline]. *)
let dtime ~baseline (r : E.Job.result) =
  Cs.Cost_model.improvement ~orig:baseline.E.Job.interp.Interp.cycles
    ~opt:r.E.Job.interp.Interp.cycles

(* A table row: [name], the miss rate of every result at each of [levels]
   (level by level), then each later result's model-time improvement over
   the first. *)
let rate_row ~levels name row =
  name
  :: List.concat_map
       (fun level -> List.map (fun r -> L.Report.pct (mrate r level)) row)
       levels
  @ List.map (fun r -> L.Report.pct (dtime ~baseline:(List.hd row) r)) (List.tl row)

let mflops (r : E.Job.result) = r.E.Job.interp.Interp.mflops

let strategy s = E.Job.Strategy s

let write_json path v =
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string v))

let tiled_matmul n (t : L.Tile_size.tile) =
  E.Job.Tiled_matmul { n; h = t.height; w = t.width }

(* ----------------------------------------------------------------- *)
(* Table 1                                                            *)
(* ----------------------------------------------------------------- *)

let table1 _ =
  let rows =
    List.map
      (fun (e : K.Registry.entry) ->
        let p = e.K.Registry.build () in
        [
          e.K.Registry.name;
          e.K.Registry.description;
          K.Registry.category_name e.K.Registry.category;
          string_of_int e.K.Registry.paper_lines;
          string_of_int (List.length p.Program.arrays);
          string_of_int (List.length p.Program.nests);
        ])
      K.Registry.all
  in
  L.Report.table ~title:"Table 1: test programs"
    ~columns:[ "Program"; "Description"; "Suite"; "Paper LoC"; "Arrays"; "Nests" ]
    rows

(* ----------------------------------------------------------------- *)
(* Figures 9 and 10: one miss-rate table per pair of padding passes    *)
(* ----------------------------------------------------------------- *)

(* Per program: L1 and L2 miss rates of the original and the two
   optimized layouts, and the optimized layouts' model-time
   improvements. *)
let level_table ctx ~title ~expected ~strategies programs =
  let rows =
    grid ctx programs strategies (fun (_, p) s ->
        E.Job.simulate ~layout:(strategy s) p)
  in
  L.Report.table ~title
    ~columns:
      [
        "program";
        "L1 Orig"; "L1 w/L1"; "L1 w/L1&L2";
        "L2 Orig"; "L2 w/L1"; "L2 w/L1&L2";
        "dT w/L1"; "dT w/L1&L2";
      ]
    (List.map2 (fun (name, _) row -> rate_row ~levels:[ 0; 1 ] name row) programs rows);
  print_endline expected

let fig9_size ctx name =
  if not ctx.fast then None
  else
    match name with
    | "EXPL512" | "JACOBI512" | "SHAL512" | "HYDRO2D" | "SWIM" ->
        Some (size ctx 512)
    | "ADI32" -> Some 128
    | "LINPACKD" -> Some 128
    | "IRR500K" -> Some 100_000
    | "BUK" | "EMBAR" -> Some 250_000
    | "CGM" -> Some 20_000
    | "FFTPDE" -> Some 65_536
    | _ -> None

let figure9 ctx =
  level_table ctx
    ~title:
      "Figure 9: PAD (L1 Opt) and MULTILVLPAD (L1&L2 Opt) — miss rates and \
       model-time improvement"
    ~expected:
      "\nExpected shape (paper): L1-only PAD already recovers most of the L2\n\
       miss-rate reduction; MULTILVLPAD is only slightly better on L2 (mostly\n\
       EXPL); L1 rates are unaffected by the L2 pass; time deltas are small."
    ~strategies:[ L.Pipeline.Original; L.Pipeline.Pad_l1; L.Pipeline.Pad_multilevel ]
    (List.map
       (fun (e : K.Registry.entry) ->
         ( String.lowercase_ascii e.K.Registry.name,
           E.Job.Registry
             { name = e.K.Registry.name; n = fig9_size ctx e.K.Registry.name } ))
       K.Registry.all)

let figure10 ctx =
  level_table ctx
    ~title:"Figure 10: GROUPPAD (L1 Opt) with and without L2MAXPAD (L1&L2 Opt)"
    ~expected:
      "\nExpected shape (paper): optimizing for the L2 cache in addition to L1\n\
       helps in few programs (EXPL benefits on L2); L1 miss rates are not\n\
       adversely affected; execution-time changes stay small."
    ~strategies:
      [ L.Pipeline.Original; L.Pipeline.Grouppad_l1; L.Pipeline.Grouppad_l1_l2 ]
    (List.map
       (fun (label, name, n) -> (label, E.Job.Registry { name; n = Some (size ctx n) }))
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

let figure11 ctx =
  let sizes = range ~lo:250 ~hi:520 ~step:(if ctx.fast then 30 else 3) in
  let run label name =
    let rows =
      grid ctx sizes [ L.Pipeline.Grouppad_l1; L.Pipeline.Grouppad_l1_l2 ] (fun n s ->
          E.Job.simulate ~layout:(strategy s) (E.Job.Registry { name; n = Some n }))
    in
    L.Report.series
      ~title:(Printf.sprintf "Figure 11 (%s): miss rates over problem sizes" label)
      ~x_label:"N"
      ~labels:
        [ "L1 w/L1Opt"; "L2 w/L1Opt"; "L1 w/L1&L2"; "L2 w/L1&L2" ]
      (List.map2
         (fun n row -> (n, List.concat_map (fun r -> [ mrate r 0; mrate r 1 ]) row))
         sizes rows)
  in
  run "EXPL" "EXPL512";
  run "SHAL" "SHAL512";
  print_endline
    "\nExpected shape (paper): L1 curves of the two versions coincide; the\n\
     L1-only version shows clusters of sizes where the L2 miss rate spikes\n\
     by a few percent; the L1&L2 version's L2 curve stays flat."

(* ----------------------------------------------------------------- *)
(* Figure 12: loop fusion on EXPL                                     *)
(* ----------------------------------------------------------------- *)

let figure12 ctx =
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
      (range ~lo:250 ~hi:700 ~step:(if ctx.fast then 50 else 6))
  in
  let rows =
    grid ctx legal [ fst; snd ] (fun n side ->
        side (E.Job.fusion_pair ~at:1 (E.Job.Registry { name = "EXPL512"; n = Some n })))
  in
  let change n = function
    | [ ro; rf ] ->
        let co = Option.get ro.E.Job.counts
        and cf = Option.get rf.E.Job.counts in
        let d_l2 = cf.An.Fusion_model.l2_refs - co.An.Fusion_model.l2_refs in
        let d_mem =
          cf.An.Fusion_model.memory_refs - co.An.Fusion_model.memory_refs
        in
        (* Simulated miss-rate change, normalized to the original
           version's reference count as in the paper. *)
        let refs_o = float_of_int ro.E.Job.interp.Interp.total_refs in
        let miss (r : E.Job.result) i =
          float_of_int (List.nth r.E.Job.interp.Interp.misses i)
        in
        let d_l1_rate = 100.0 *. (miss rf 0 -. miss ro 0) /. refs_o in
        let d_l2_rate = 100.0 *. (miss rf 1 -. miss ro 1) /. refs_o in
        (n, [ float_of_int d_l2; float_of_int d_mem; d_l1_rate; d_l2_rate ])
    | _ -> assert false
  in
  L.Report.series
    ~title:
      "Figure 12: change in L2 refs, memory refs (model) and miss rates \
       (simulated) from fusing EXPL nests 76+77"
    ~x_label:"N"
    ~labels:[ "dL2refs"; "dMemRefs"; "dL1miss%"; "dL2miss%" ]
    (List.map2 change legal rows);
  print_endline
    "\nExpected shape (paper): memory references drop by a constant as a\n\
     result of fusion while the change in L2 references oscillates >= 0\n\
     depending on problem size; the simulated L1 miss-rate change tracks\n\
     the L2-reference count and the L2 miss-rate change tracks the memory\n\
     reference count (flat, negative)."

(* ----------------------------------------------------------------- *)
(* Figure 13: tiled matrix multiplication                             *)
(* ----------------------------------------------------------------- *)

let policy_tiles n =
  L.Tile_size.policy_tiles ~l1:(Cs.Machine.s1 machine)
    ~l2:(Cs.Machine.level_size machine 1) ~elem:8 n

let figure13 ctx =
  let rows =
    List.map
      (fun n -> (n, policy_tiles n))
      (range ~lo:100 ~hi:400 ~step:(if ctx.fast then 72 else 18))
  in
  let labels = List.map fst (snd (List.hd rows)) in
  let results =
    grid ctx rows (None :: List.map Option.some labels) (fun (n, tiles) policy ->
        E.Job.simulate ~layout:E.Job.Initial
          (match policy with
          | None -> E.Job.Matmul { n }
          | Some label -> tiled_matmul n (List.assoc label tiles)))
  in
  L.Report.series
    ~title:
      "Figure 13: simulated MFLOPS of matrix multiply under tile-size policies"
    ~x_label:"N"
    ~labels:("Orig" :: labels)
    (List.map2 (fun (n, _) row -> (n, List.map mflops row)) rows results);
  (* also print the chosen tiles for reference *)
  L.Report.table ~title:"Figure 13 (tiles chosen by eucPad-style selection)"
    ~columns:("N" :: labels)
    (List.map
       (fun n ->
         string_of_int n
         :: List.map
              (fun (_, (t : L.Tile_size.tile)) ->
                Printf.sprintf "%dx%d" t.height t.width)
              (policy_tiles n))
       [ 100; 200; 300; 400 ]);
  print_endline
    "\nExpected shape (paper): L1-sized tiles give the best and steadiest\n\
     performance; L2-sized tiles only help once matrices exceed the L2\n\
     cache and never beat L1 tiles; 2xL1/4xL1 fall in between (most L1\n\
     benefit is lost as soon as tiles exceed the L1 cache)."

(* ----------------------------------------------------------------- *)
(* Ablations beyond the paper's figures                               *)
(* ----------------------------------------------------------------- *)

let ablation ctx =
  (* (a) associativity: run PAD-optimized layouts on k-way machines, and
     compare the direct-mapped assumption against an explicitly
     associativity-aware PAD.  The paper's claim: treating k-way caches
     as direct-mapped loses almost nothing. *)
  let jacobi =
    E.Job.Registry { name = "JACOBI512"; n = Some (if ctx.fast then 128 else 512) }
  in
  let s1 = Cs.Machine.s1 machine in
  let l1_line = Cs.Machine.level_line machine 0 in
  let ks = [ 1; 2; 4 ] in
  let rows =
    grid ctx ks
      [
        (fun _ -> E.Job.Initial);
        (fun _ -> strategy L.Pipeline.Pad_l1);
        (fun k -> E.Job.Pad_assoc { size = s1; line = l1_line; assoc = k });
      ]
      (fun k layout ->
        let m =
          { (E.Job.machine "ultrasparc") with
            E.Job.assoc = (if k = 1 then None else Some k)
          }
        in
        E.Job.simulate ~machine:m ~layout:(layout k) jacobi)
  in
  L.Report.table
    ~title:
      "Ablation: direct-mapped PAD vs associativity-aware PAD on k-way \
       caches (JACOBI)"
    ~columns:
      [ "assoc"; "L1 Orig"; "L1 PAD(dm)"; "L1 PAD(assoc)"; "dT dm"; "dT assoc" ]
    (List.map2 (fun k row -> rate_row ~levels:[ 0 ] (string_of_int k) row) ks rows);
  (* (b) three-level hierarchy: MULTILVLPAD with (S1, Lmax) on an
     Alpha-21164-style machine. *)
  let expl =
    E.Job.Registry { name = "EXPL512"; n = Some (if ctx.fast then 128 else 512) }
  in
  let versions =
    [
      ("Orig", L.Pipeline.Original);
      ("PAD(L1)", L.Pipeline.Pad_l1);
      ("MULTILVLPAD", L.Pipeline.Pad_multilevel);
    ]
  in
  let results =
    submit ctx
      (List.map
         (fun (_, s) ->
           E.Job.simulate ~machine:(E.Job.machine "alpha") ~layout:(strategy s)
             expl)
         versions)
  in
  L.Report.table
    ~title:"Ablation: three-level hierarchy (8K/128K/2M), EXPL"
    ~columns:[ "version"; "L1"; "L2"; "L3" ]
    (List.map2
       (fun (label, _) r -> rate_row ~levels:[ 0; 1; 2 ] label [ r ])
       versions results);
  (* (c) the Section 5 exception (Song & Li): tiling across time steps.
     The tile's working set is block+steps columns — too big for L1 at
     any block size — so the tile targets the L2 cache. *)
  let n = if ctx.fast then 256 else 512 in
  let steps = 8 in
  let col_bytes = n * 8 in
  let l2_cols = Cs.Machine.level_size machine 1 / col_bytes in
  let blocks =
    [
      ("tiny block (L1-ish)", 1);
      ("half-L2 block", max 1 ((l2_cols / 2) - steps));
      ("over-L2 block", 2 * l2_cols);
    ]
  in
  let results =
    submit ctx
      (E.Job.simulate ~layout:E.Job.Initial (E.Job.Time_sweep { n; steps })
      :: List.map
           (fun (_, block) ->
             E.Job.simulate ~layout:E.Job.Initial
               (E.Job.Time_tiled { n; steps; block }))
           blocks)
  in
  let per_ref (r : E.Job.result) =
    Printf.sprintf "%.3f"
      (r.E.Job.interp.Interp.cycles
      /. float_of_int r.E.Job.interp.Interp.total_refs)
  in
  L.Report.table
    ~title:
      (Printf.sprintf
         "Ablation (Song & Li exception): time-step tiling of a %dx%d sweep, \
          %d steps — tile working set vs cycles/ref"
         n n steps)
    ~columns:[ "version"; "tile working set"; "cycles/ref" ]
    ([ "untiled sweeps"; "-"; per_ref (List.hd results) ]
    :: List.map2
         (fun (label, block) r ->
           let cols = K.Time_kernels.tile_columns ~steps ~block in
           [
             label;
             Printf.sprintf "%d cols = %dK" cols (cols * col_bytes / 1024);
             per_ref r;
           ])
         blocks (List.tl results));
  print_endline
    "\nExpected shape (paper, Section 5): no time-step tile fits the L1\n\
     cache, so the tiling targets L2; blocks sized for the L2 beat both\n\
     the untiled sweeps and over-L2 blocks.";
  (* (d) write policy: the paper's simulator allocates on writes; check
     how much the policy choice moves the reported miss rates. *)
  let results =
    submit ctx
      (List.map
         (fun write_allocate ->
           E.Job.simulate
             ~machine:
               { (E.Job.machine "ultrasparc") with
                 E.Job.write_allocate = Some write_allocate
               }
             ~layout:(strategy L.Pipeline.Pad_l1) jacobi)
         [ true; false ])
  in
  L.Report.table
    ~title:"Ablation: write policy on padded JACOBI (miss rates + writebacks)"
    ~columns:[ "policy"; "L1"; "L2"; "writebacks" ]
    (List.map2
       (fun label (r : E.Job.result) ->
         rate_row ~levels:[ 0; 1 ] label [ r ]
         @ [ string_of_int r.E.Job.interp.Interp.writebacks ])
       [ "write-allocate (paper)"; "no-allocate" ]
       results);
  (* (e) hardware next-line prefetching — the paper's footnote 1: DOT
     improved "due to the differences in the ability of the underlying
     memory system to handle multiple outstanding cache misses, since the
     two input vectors were padded 64 instead of 32 bytes due to the
     longer L2 cache lines".  With a sequential prefetcher the mechanism
     is visible: PAD's one-line (32B) separation puts each vector's
     prefetch stream on top of the other vector's demand stream, while
     MULTILVLPAD's Lmax = 64B separation keeps the streams disjoint. *)
  let dot =
    E.Job.Registry
      { name = "DOT256"; n = Some (if ctx.fast then 65_536 else 262_144) }
  in
  let layouts =
    [
      ("packed", E.Job.Initial);
      ("PAD (32B pads)", strategy L.Pipeline.Pad_l1);
      ("MULTILVLPAD (64B pads)", strategy L.Pipeline.Pad_multilevel);
    ]
  in
  let pf_configs = [ ("no prefetch", []); ("next-line prefetch", [ 0; 1 ]) ] in
  let rows =
    grid ctx layouts pf_configs (fun (_, layout) (_, pf) ->
        E.Job.simulate
          ~machine:{ (E.Job.machine "ultrasparc") with E.Job.prefetch_levels = pf }
          ~layout dot)
  in
  L.Report.table
    ~title:
      "Ablation (footnote 1): next-line prefetching on DOT under the three \
       layouts"
    ~columns:[ "configuration"; "L1"; "L2" ]
    (List.concat
       (List.map2
          (fun (label, _) row ->
            List.map2
              (fun (pf_label, _) r ->
                rate_row ~levels:[ 0; 1 ] (label ^ ", " ^ pf_label) [ r ])
              pf_configs row)
          layouts rows));
  print_endline
    "\nExpected shape (paper footnote 1): prefetching cannot rescue the\n\
     packed ping-pong; under PAD's minimal 32B pads the two vectors'\n\
     prefetch and demand streams collide and prefetching helps nothing;\n\
     under MULTILVLPAD's 64B (Lmax) pads the streams are disjoint and\n\
     prefetching removes essentially every miss — the mechanism behind\n\
     the paper's DOT256 timing anomaly."

(* ----------------------------------------------------------------- *)
(* Tiling-algorithm comparison (the paper's CC'99 companion study)    *)
(* ----------------------------------------------------------------- *)

let tiles ctx =
  let sizes = range ~lo:100 ~hi:400 ~step:(if ctx.fast then 100 else 25) in
  let elem = 8 and l1 = Cs.Machine.s1 machine in
  let algorithms =
    [
      ("euc", fun n -> L.Tile_size.select ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n ());
      ("LRW", fun n -> L.Tile_size.lrw ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
      ("TSS", fun n -> L.Tile_size.tss ~cache_bytes:l1 ~elem ~col_elems:n ~rows:n);
    ]
  in
  let rows =
    grid ctx sizes algorithms (fun n (_, pick) ->
        E.Job.simulate ~layout:E.Job.Initial (tiled_matmul n (pick n)))
  in
  L.Report.series
    ~title:
      "Tile-size selection algorithms on L1-targeted matmul (simulated \
       MFLOPS) — euc (miss-fraction score) vs LRW (largest square) vs TSS \
       (largest area)"
    ~x_label:"N"
    ~labels:(List.map fst algorithms)
    (List.map2 (fun n row -> (n, List.map mflops row)) sizes rows);
  print_endline
    "\nExpected shape (Rivera & Tseng CC'99): all three stay within a few\n\
     MFLOPS of each other at most sizes — conflict-free tile selection\n\
     matters much more than the exact objective — with the rectangular\n\
     algorithms (euc/TSS) pulling ahead at sizes where non-conflicting\n\
     squares are forced to be tiny."

(* ----------------------------------------------------------------- *)
(* Analytical predictor vs simulator                                  *)
(* ----------------------------------------------------------------- *)

let predict ctx =
  let programs =
    [
      ("jacobi", E.Job.Registry { name = "JACOBI512"; n = Some (size ctx 512) });
      ("expl", E.Job.Registry { name = "EXPL512"; n = Some (size ctx 512) });
      ("adi", E.Job.Registry { name = "ADI32"; n = Some (size ctx 256) });
      ("dot", E.Job.Registry { name = "DOT256"; n = Some (size ctx 262_144) });
      ("shal", E.Job.Registry { name = "SHAL512"; n = Some (size ctx 256) });
      ("figure2", E.Job.Paper { name = "figure2"; n = size ctx 512 });
    ]
  in
  let versions =
    [ ("packed", L.Pipeline.Original); ("padded", L.Pipeline.Pad_l1) ]
  in
  let rows =
    grid ctx programs versions (fun (_, p) (_, s) ->
        E.Job.simulate ~predict:true ~layout:(strategy s) p)
  in
  let row name (vlabel, _) (r : E.Job.result) =
    let sim = r.E.Job.interp in
    let predicted = Option.get r.E.Job.predicted in
    let refs = float_of_int sim.Interp.total_refs in
    [
      name ^ " " ^ vlabel;
      L.Report.pct (mrate r 0);
      L.Report.pct (100.0 *. List.hd predicted /. refs);
      L.Report.f2
        (List.hd predicted /. float_of_int (max 1 (List.hd sim.Interp.misses)));
    ]
  in
  L.Report.table
    ~title:
      "Analytical miss prediction vs simulation (L1): the static model the \
       compiler decides with"
    ~columns:[ "program"; "L1 simulated"; "L1 predicted"; "ratio" ]
    (List.concat
       (List.map2 (fun (name, _) -> List.map2 (row name) versions) programs rows));
  print_endline
    "\nThe predictor exists to rank choices the way the paper's compiler\n\
     does; ratios within a small factor of 1 and consistent orderings\n\
     (padded < packed on both columns) are the success criterion."

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
  let n3 = if ctx.fast then 256 else 512 in
  let mk_pair ld =
    let a = Mlc_native.Nat_stencil.create ?ld n3 in
    let b = Mlc_native.Nat_stencil.create ?ld n3 in
    Mlc_native.Nat_stencil.random_fill ~seed:3 b;
    (a, b)
  in
  let a0, b0 = mk_pair None in
  let a1, b1 = mk_pair (Some (n3 + 8)) in
  run_group
    (Printf.sprintf "jacobi %dx%d (real time)" n3 n3)
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
   both hierarchy levels in play), checks the results agree exactly, and
   records the wall-clock ratio in BENCH_fastsim.json.  Wall-clock output
   is nondeterministic, so like bechamel this section only runs when
   asked for by name. *)
let fastsim_json_path = "BENCH_fastsim.json"

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
  let specs be =
    Array.of_list
      (List.map
         (fun (name, strat) ->
           E.Job.simulate ~backend:be
             ~machine:(E.Job.machine "ultrasparc")
             ~layout:(strategy strat)
             (E.Job.Registry { name; n = Some n }))
         cases)
  in
  let time be =
    let t0 = Unix.gettimeofday () in
    let results = E.Engine.run ~jobs:1 (specs be) in
    (Unix.gettimeofday () -. t0, results)
  in
  let t_ref, r_ref = time `Reference in
  let t_fast, r_fast = time `Fast in
  Array.iteri
    (fun i (a : E.Job.result) ->
      let b = r_fast.(i) in
      if
        not
          (a.E.Job.interp = b.E.Job.interp
          && List.for_all2 Cs.Stats.equal a.E.Job.level_stats
               b.E.Job.level_stats)
      then failwith ("fastsim: backend results differ on " ^ a.E.Job.key))
    r_ref;
  let speedup = if t_fast > 0.0 then t_ref /. t_fast else 0.0 in
  L.Report.table
    ~title:
      (Printf.sprintf
         "Fast backend vs reference (cold, 1 worker, ultrasparc, n=%d)" n)
    ~columns:[ "backend"; "wall (s)"; "speedup" ]
    [
      [ "reference"; Printf.sprintf "%.2f" t_ref; "1.00x" ];
      [ "fast"; Printf.sprintf "%.2f" t_fast; Printf.sprintf "%.2fx" speedup ];
    ];
  let total_refs =
    Array.fold_left
      (fun acc (r : E.Job.result) ->
        acc + r.E.Job.interp.Mlc_ir.Interp.total_refs)
      0 r_fast
  in
  write_json fastsim_json_path
    (Json.Obj
       [
         ("machine", Json.String "ultrasparc");
         ("jobs", Json.Int 1);
         ("n", Json.Int n);
         ( "programs",
           Json.List
             (List.map
                (fun (name, strat) ->
                  Json.String (name ^ "/" ^ E.Job.strategy_tag strat))
                cases) );
         ("total_refs", Json.Int total_refs);
         ("reference_wall_s", Json.fixed 3 t_ref);
         ("fast_wall_s", Json.fixed 3 t_fast);
         ("speedup", Json.fixed 2 speedup);
       ]);
  Printf.eprintf "[fastsim: reference %.2fs, fast %.2fs, %.2fx -> %s]\n%!"
    t_ref t_fast speedup fastsim_json_path

let sections =
  [
    ("table1", table1);
    ("figure9", figure9);
    ("figure10", figure10);
    ("figure11", figure11);
    ("figure12", figure12);
    ("figure13", figure13);
    ("tiles", tiles);
    ("predict", predict);
    ("ablation", ablation);
    ("bechamel", bechamel);
    ("fastsim", fastsim);
  ]

(* Bechamel and fastsim measure real wall-clock time, so their output can
   never be byte-identical across runs; they only run when asked for by
   name. *)
let default_sections =
  List.filter
    (fun (name, _) -> name <> "bechamel" && name <> "fastsim")
    sections

let json_path = "BENCH_engine.json"

let mode ctx = if ctx.fast then "fast" else "full"

let dump_json ctx section_times =
  let metrics =
    match ctx.obs with
    | None -> []
    | Some buf ->
        [
          ( "metrics",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Obs.Buf.counters buf)) );
        ]
  in
  write_json json_path
    (Json.Obj
       (metrics
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
  let wanted =
    List.filter_map
      (fun w -> if w = "fast" then None else Some (w, List.assoc w sections))
      words
  in
  let to_run = if wanted = [] then default_sections else wanted in
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
  let section_times =
    List.map
      (fun (name, f) ->
        let t0 = Unix.gettimeofday () in
        (* With observability on, the engine's per-job buffers merge into
           the run's buffer under this span, so one trace covers the whole
           run. *)
        Obs.with_span ~cat:"bench" ("section:" ^ name) (fun () -> f ctx);
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
