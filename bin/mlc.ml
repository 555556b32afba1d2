(* mlc — command-line driver for the multi-level cache locality toolkit.

   Subcommands:
     list                           show the benchmark inventory (Table 1)
     simulate PROG                  run a program under a strategy, print metrics
     sweep PROG                     parallel size x strategy sweep on the engine
     layout PROG                    print the layout a strategy produces
     arcs PROG                      text rendering of the paper's layout diagrams
     fuse PROG                      fuse two nests, print the two-level accounting
     tile N                         tile-size policies for NxN matmul + simulation
     bench [fast] [SECTION...]      regenerate the paper's tables and figures
                                    (bench.ml) *)

open Cmdliner
open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality
module E = Mlc_engine
module Cli = Mlc_cli.Cli

(* --- shared args -------------------------------------------------------- *)

let prog_arg =
  let doc = "Benchmark program name from Table 1 (see `mlc list`)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROG" ~doc)

let size_arg =
  let doc = "Override the problem size." in
  Arg.(value & opt (some Cli.pos_int) None & info [ "n"; "size" ] ~docv:"N" ~doc)

let build_program name n = E.Job.build_program (E.Job.Registry { name; n })

(* --- simulation rows (simulate, run, fuse) --------------------------------- *)

let pp_row label ppf (r : Interp.result) =
  Format.fprintf ppf "%-28s refs=%-10d" label r.Interp.total_refs;
  List.iteri
    (fun i rate -> Format.fprintf ppf " L%d=%5.2f%%" (i + 1) (100.0 *. rate))
    r.Interp.miss_rates;
  Format.fprintf ppf " cycles=%.3e mflops=%.1f" r.Interp.cycles r.Interp.mflops

(* The original layout against [strategy]. *)
let compare_to_original machine strategy p =
  let simulate s = Interp.run machine (L.Pipeline.layout_for machine s p) p in
  let orig = simulate L.Pipeline.Original and opt = simulate strategy in
  Format.printf "%s on %s@." p.Program.name machine.Cs.Machine.name;
  Format.printf "  %a@." (pp_row (L.Pipeline.strategy_name L.Pipeline.Original)) orig;
  Format.printf "  %a@." (pp_row (L.Pipeline.strategy_name strategy)) opt;
  Format.printf "  model-time improvement: %.2f%%@."
    (Cs.Cost_model.improvement ~orig:orig.Interp.cycles ~opt:opt.Interp.cycles)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    List.iter
      (fun (e : K.Registry.entry) ->
        Printf.printf "%-10s %-10s %s\n" e.K.Registry.name
          (K.Registry.category_name e.K.Registry.category)
          e.K.Registry.description)
      K.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark programs (Table 1).")
    Term.(const run $ const ())

(* --- simulate ------------------------------------------------------------- *)

let simulate_cmd =
  let run prog size strategy machine obs =
    Cli.with_obs ~span:("mlc:simulate " ^ prog) obs @@ fun _obs ->
    let p = build_program prog size in
    Validate.check_exn p;
    compare_to_original machine strategy p
  in
  let term =
    Term.(const run $ prog_arg $ size_arg $ Cli.strategy $ Cli.machine $ Cli.obs)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a program under a layout strategy and print miss rates.")
    term

(* --- sweep ----------------------------------------------------------------- *)

let sweep_cmd =
  let lo_arg =
    Arg.(value & opt Cli.pos_int 250 & info [ "lo" ] ~docv:"N" ~doc:"Smallest size.")
  in
  let hi_arg =
    Arg.(value & opt Cli.pos_int 520 & info [ "hi" ] ~docv:"N" ~doc:"Largest size.")
  in
  let step_arg =
    Arg.(value & opt Cli.pos_int 10 & info [ "step" ] ~docv:"S" ~doc:"Size step.")
  in
  let strategies_arg =
    let doc =
      "Comma-separated strategies (orig,pad,multilvlpad,grouppad,l2maxpad)."
    in
    Arg.(value
         & opt (list (enum E.Job.strategies))
             [ L.Pipeline.Grouppad_l1; L.Pipeline.Grouppad_l1_l2 ]
         & info [ "strategies" ] ~docv:"S,S" ~doc)
  in
  let error_policy_arg =
    Arg.(value & opt (enum [ ("fail-fast", true); ("collect", false) ]) true
         & info [ "error-policy" ] ~docv:"P"
             ~doc:"$(b,fail-fast) (default): the first failing cell aborts \
                   the sweep.  $(b,collect): every cell runs, failed cells \
                   are reported at the end and the exit status is non-zero.")
  in
  let run prog lo hi step strategies machine_spec jobs cache backend fail_fast
      obs =
    Cli.with_obs ~span:(Printf.sprintf "mlc:sweep %s %d..%d" prog lo hi) obs
    @@ fun obs ->
    let machine = E.Job.build_machine machine_spec in
    if strategies = [] then raise (E.Job.Spec_error "sweep: no strategies given");
    if lo > hi then
      raise (E.Job.Spec_error (Printf.sprintf "sweep: --lo %d is above --hi %d" lo hi));
    let rec sizes n = if n > hi then [] else n :: sizes (n + step) in
    let sizes = sizes lo in
    (* an unknown or unsized program fails here, before any cell runs *)
    ignore (build_program prog (Some lo));
    let entry = K.Registry.find prog in
    let progress = E.Progress.create ~jobs () in
    let specs =
      List.concat_map
        (fun n ->
          List.map
            (fun s ->
              E.Job.simulate ~machine:machine_spec ~backend
                ~layout:(E.Job.Strategy s)
                (E.Job.Registry { name = entry.K.Registry.name; n = Some n }))
            strategies)
        sizes
      |> Array.of_list
    in
    let cancel = Atomic.make false in
    let previous_sigint =
      (* First Ctrl-C stops at the next job boundary; a second one gives
         up immediately. *)
      try
        Some
          (Sys.signal Sys.sigint
             (Sys.Signal_handle
                (fun _ -> if Atomic.get cancel then exit 130 else Atomic.set cancel true)))
      with Invalid_argument _ | Sys_error _ -> None
    in
    let slots =
      E.Engine.run_collect ?cache ~progress ?obs ~cancel
        ~stop_on_failure:fail_fast ~jobs specs
    in
    Option.iter (fun h -> try Sys.set_signal Sys.sigint h with _ -> ()) previous_sigint;
    E.Progress.finish progress;
    let completed =
      Array.fold_left (fun n -> function Some (Ok _) -> n + 1 | _ -> n) 0 slots
    in
    let failures =
      Array.to_list
        (Array.mapi (fun i slot -> (i, slot)) slots)
      |> List.filter_map (function
           | i, Some (Error f) -> Some (i, f)
           | _ -> None)
    in
    if Atomic.get cancel then begin
      Format.eprintf "interrupted: %d/%d cells completed%s@." completed
        (Array.length specs)
        (if cache = None then "" else "; re-run the same command to finish");
      exit 130
    end;
    if fail_fast && failures <> [] then begin
      (* Preserve the historical fail-fast contract: re-raise the first
         failure as if Engine.run had thrown it. *)
      let _, f = List.hd failures in
      Printexc.raise_with_backtrace f.E.Fault.exn f.E.Fault.backtrace
    end;
    let per_size = List.length strategies in
    let n_levels = Cs.Machine.n_levels machine in
    let columns =
      "N"
      :: List.concat_map
           (fun s ->
             let tag = E.Job.strategy_tag s in
             List.init n_levels (fun l -> Printf.sprintf "%s L%d" tag (l + 1))
             @ [ tag ^ " cycles" ])
           strategies
    in
    let rows =
      List.mapi
        (fun i n ->
          string_of_int n
          :: List.concat
               (List.init per_size (fun j ->
                    match slots.((per_size * i) + j) with
                    | Some (Ok r) ->
                        List.init n_levels (fun l ->
                            L.Report.pct
                              (100.0
                              *. List.nth r.E.Job.interp.Mlc_ir.Interp.miss_rates l))
                        @ [
                            Printf.sprintf "%.3e"
                              r.E.Job.interp.Mlc_ir.Interp.cycles;
                          ]
                    | Some (Error _) | None ->
                        List.init n_levels (fun _ -> "-") @ [ "FAILED" ])))
        sizes
    in
    L.Report.table
      ~title:
        (Printf.sprintf "Sweep: %s over N=%d..%d step %d on %s"
           entry.K.Registry.name lo hi step machine.Cs.Machine.name)
      ~columns rows;
    let ok_results =
      Array.of_list
        (Array.to_list slots
        |> List.filter_map (function Some (Ok r) -> Some r | _ -> None))
    in
    let merged = E.Engine.merged_stats ok_results in
    if failures = [] then Format.printf "@.totals:@."
    else
      Format.printf "@.totals (%d/%d completed cells):@." completed
        (Array.length specs);
    List.iteri
      (fun l s -> Format.printf "  L%d %a@." (l + 1) Cs.Stats.pp s)
      merged;
    (* timing is nondeterministic; keep stdout byte-stable for a given
       sweep (the golden test diffs it across jobs/cache/backend) *)
    Format.eprintf "%s@." (E.Progress.summary progress);
    if failures <> [] then begin
      List.iter
        (fun (i, f) ->
          Format.eprintf "failed: %s: %a@."
            (E.Job.describe specs.(i))
            E.Fault.pp_failure f)
        failures;
      Format.eprintf "%d/%d cells failed%s@." (List.length failures)
        (Array.length specs)
        (if cache = None then ""
         else "; re-run to retry just those cells");
      Format.pp_print_flush Format.std_formatter ();
      exit 1
    end
  in
  let term =
    Term.(
      const run $ prog_arg $ lo_arg $ hi_arg $ step_arg $ strategies_arg
      $ Cli.machine_spec $ Cli.jobs [ "jobs"; "j" ] $ Cli.cache $ Cli.backend
      $ error_policy_arg $ Cli.obs)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep a benchmark over problem sizes and strategies on the \
          parallel experiment engine (domain pool + content-addressed \
          result cache).")
    term

(* --- layout ---------------------------------------------------------------- *)

let layout_cmd =
  let run prog size strategy machine =
    let p = build_program prog size in
    let layout = L.Pipeline.layout_for machine strategy p in
    Format.printf "%s, strategy %s:@.%a" p.Program.name (E.Job.strategy_tag strategy)
      Layout.pp layout;
    let s1 = Cs.Machine.s1 machine in
    Format.printf "bases mod S1 (%d):@." s1;
    List.iter
      (fun v -> Format.printf "  %-10s %d@." v (Layout.base layout v mod s1))
      (Layout.array_names layout)
  in
  let term = Term.(const run $ prog_arg $ size_arg $ Cli.strategy $ Cli.machine) in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print the memory layout a strategy produces.")
    term

(* --- arcs ------------------------------------------------------------------ *)

let arcs_cmd =
  let diagram_arg =
    Arg.(value & flag & info [ "diagram" ] ~doc:"Render ASCII layout diagrams.")
  in
  let run prog size strategy machine diagram =
    let p = build_program prog size in
    let layout = L.Pipeline.layout_for machine strategy p in
    let s1 = Cs.Machine.s1 machine in
    let line = Cs.Machine.level_line machine 0 in
    if diagram then
      print_string (An.Diagram.render_program layout ~size:s1 ~line p)
    else
    List.iteri
      (fun i nest ->
        Format.printf "nest %d:@." i;
        let dots = An.Arcs.dots layout ~size:s1 nest in
        List.iter
          (fun d ->
            Format.printf "  dot %-2d %-18s pos %6d@." d.An.Arcs.ref_index
              (Ref_.to_string d.An.Arcs.ref_)
              d.An.Arcs.position)
          dots;
        List.iter
          (fun a ->
            Format.printf "  arc %s: %d -> %d (span %d) %s@." a.An.Arcs.array
              a.An.Arcs.trailing a.An.Arcs.leading a.An.Arcs.span
              (if An.Arcs.arc_preserved dots ~size:s1 a then "PRESERVED"
               else "lost"))
          (An.Arcs.arcs layout nest);
        let conflicts = An.Arcs.severe_conflicts layout ~size:s1 ~line nest in
        Format.printf "  severe conflicts: %d@." (List.length conflicts))
      p.Program.nests
  in
  let term =
    Term.(const run $ prog_arg $ size_arg $ Cli.strategy $ Cli.machine $ diagram_arg)
  in
  Cmd.v
    (Cmd.info "arcs"
       ~doc:
         "Render the layout-diagram model: dot positions, group-reuse arcs \
          and severe conflicts per nest.")
    term

(* --- fuse ------------------------------------------------------------------ *)

let fuse_cmd =
  let nest_arg =
    Arg.(value & opt int 0 & info [ "nest" ] ~docv:"I" ~doc:"Fuse nests I and I+1.")
  in
  let run prog size nest_idx machine =
    let p = build_program prog size in
    let n_nests = List.length p.Program.nests in
    if nest_idx < 0 || nest_idx + 1 >= n_nests then
      raise
        (E.Job.Spec_error
           (Printf.sprintf "invalid --nest %d: %s has %d nests (valid: 0..%d)"
              nest_idx p.Program.name n_nests (n_nests - 2)));
    let original, fused =
      E.Job.fusion_pair ~machine ~at:nest_idx
        (E.Job.Registry { name = prog; n = size })
    in
    (* the fused job first: an illegal fusion fails before any simulation *)
    let rf = E.Job.execute fused in
    let ro = E.Job.execute original in
    Format.printf "original nests %d,%d: %a@." nest_idx (nest_idx + 1)
      An.Fusion_model.pp_counts (Option.get ro.E.Job.counts);
    Format.printf "fused:              %a@." An.Fusion_model.pp_counts
      (Option.get rf.E.Job.counts);
    Format.printf "simulated: %a@.           %a@." (pp_row "original") ro.E.Job.interp
      (pp_row "fused") rf.E.Job.interp
  in
  let term = Term.(const run $ prog_arg $ size_arg $ nest_arg $ Cli.machine_spec) in
  Cmd.v
    (Cmd.info "fuse"
       ~doc:"Fuse two adjacent nests and print the Section 4 accounting.")
    term

(* --- tile ------------------------------------------------------------------ *)

let tile_cmd =
  let n_arg =
    Arg.(required & pos 0 (some Cli.pos_int) None & info [] ~docv:"N" ~doc:"Matrix size.")
  in
  let run n machine =
    let elem = 8 in
    let l1 = Cs.Machine.s1 machine in
    let l2 = try Cs.Machine.level_size machine 1 with _ -> l1 in
    Format.printf "matmul %dx%d:@." n n;
    let orig = L.Tiling.matmul n in
    let r = Interp.run machine (Layout.initial orig) orig in
    Format.printf "  %-6s               %8.2f MFLOPS (model)@." "orig"
      r.Interp.mflops;
    List.iter
      (fun (label, (t : L.Tile_size.tile)) ->
        let p = L.Tiling.tiled_matmul ~n ~h:t.height ~w:t.width in
        let r = Interp.run machine (Layout.initial p) p in
        Format.printf "  %-6s tile %4dx%-4d %8.2f MFLOPS (model)@." label t.height
          t.width r.Interp.mflops)
      (L.Tile_size.policy_tiles ~l1 ~l2 ~elem n)
  in
  let term = Term.(const run $ n_arg $ Cli.machine) in
  Cmd.v
    (Cmd.info "tile"
       ~doc:"Compare tile-size policies on NxN matrix multiplication.")
    term

(* --- compile (full pipeline) --------------------------------------------------- *)

let compile_cmd =
  let scalar_arg =
    Arg.(value & flag & info [ "scalar-replace" ]
           ~doc:"Also remove register-carried loads from the stream.")
  in
  let run prog size machine scalar obs =
    Cli.with_obs ~span:("mlc:compile " ^ prog) obs @@ fun _obs ->
    let p = build_program prog size in
    let passes =
      if scalar then
        [ L.Pass.permute; L.Pass.fusion; L.Pass.scalar_replace ]
        @ L.Pipeline.passes L.Pipeline.Grouppad_l1_l2
      else L.Compiler.default_passes
    in
    let optimized = L.Compiler.optimize ~passes machine p in
    List.iter
      (Format.eprintf "warning: %s: %a@." p.Program.name Validate.pp_issue)
      (Validate.check optimized.L.Compiler.program);
    print_string (L.Compiler.report machine p optimized)
  in
  let term =
    Term.(const run $ prog_arg $ size_arg $ Cli.machine $ scalar_arg $ Cli.obs)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Run the whole pipeline (permute, fuse, pad) on a program and \
          report original vs optimized metrics.")
    term

(* --- emit (code generation) --------------------------------------------------- *)

let emit_cmd =
  let lang_arg =
    let doc =
      "Output language: c (standalone C program), f77 (Fortran with the \
       layout realized in a COMMON block) or mlc (kernel language)."
    in
    Arg.(value & opt (enum [ ("c", `C); ("f77", `F77); ("mlc", `Mlc) ]) `C
         & info [ "lang" ] ~docv:"L" ~doc)
  in
  let repeat_arg =
    Arg.(value & opt Cli.pos_int 1 & info [ "repeat" ] ~docv:"R" ~doc:"Repetitions in the emitted main.")
  in
  let run prog size strategy machine lang repeat =
    let p = build_program prog size in
    let layout () = L.Pipeline.layout_for machine strategy p in
    match lang with
    | `Mlc -> print_string (Pretty.program p)
    | `C -> print_string (Mlc_codegen.Codegen_c.emit ~repeat (layout ()) p)
    | `F77 -> print_string (Mlc_codegen.Codegen_f77.emit (layout ()) p)
  in
  let term =
    Term.(const run $ prog_arg $ size_arg $ Cli.strategy $ Cli.machine $ lang_arg
          $ repeat_arg)
  in
  Cmd.v
    (Cmd.info "emit"
       ~doc:
         "Emit a benchmark program as compilable C (with the strategy's \
          pads physically realized) or as kernel-language source.")
    term

(* --- curve (stack-distance analysis) ----------------------------------------- *)

let curve_cmd =
  let run prog size =
    let p = build_program prog size in
    let layout = Layout.initial p in
    let trace = Interp.trace layout p in
    let sd = Cs.Stack_distance.analyze ~line:32 trace in
    let total = Cs.Stack_distance.total sd in
    Format.printf
      "%s: %d references, %d distinct lines (cold)@." p.Program.name total
      (Cs.Stack_distance.cold sd);
    if total = 0 then Format.printf "no references to rate@."
    else begin
      Format.printf "fully-associative LRU miss rates by capacity:@.";
      List.iter
        (fun kb ->
          let lines = kb * 1024 / 32 in
          let misses = Cs.Stack_distance.misses_at sd ~lines in
          Format.printf "  %5dK (%6d lines): %6.2f%%%s@." kb lines
            (100.0 *. float_of_int misses /. float_of_int total)
            (match kb with
            | 16 -> "   <- L1 capacity"
            | 512 -> "   <- L2 capacity"
            | _ -> ""))
        [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024 ]
    end
  in
  let term = Term.(const run $ prog_arg $ size_arg) in
  Cmd.v
    (Cmd.info "curve"
       ~doc:
         "Stack-distance analysis: the program's miss-rate-vs-capacity \
          curve, independent of conflicts.  Note: builds the full trace \
          in memory, prefer small sizes.")
    term

(* --- run (source files) ------------------------------------------------------ *)

let run_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Kernel-language source file.")
  in
  let run file strategy machine =
    match Mlc_frontend.Parser.parse_file file with
    | exception Mlc_frontend.Parser.Error (msg, line, col) ->
        Printf.eprintf "%s:%d:%d: %s\n" file line col msg;
        exit 1
    | p -> compare_to_original machine strategy p
  in
  let term = Term.(const run $ file_arg $ Cli.strategy $ Cli.machine) in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Parse a kernel-language source file, optimize its layout and \
          simulate it.")
    term

(* --- trace-check (validate exported traces) ---------------------------------- *)

let trace_check_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Chrome trace_event JSON file.")
  in
  let run file =
    match Mlc_obs.Trace_check.validate_file file with
    | Ok s ->
        Printf.printf
          "%s: OK (%d events: %d spans, %d counter samples, %d instants, %d \
           lanes)\n"
          file s.Mlc_obs.Trace_check.events s.Mlc_obs.Trace_check.spans
          s.Mlc_obs.Trace_check.counters s.Mlc_obs.Trace_check.instants
          s.Mlc_obs.Trace_check.tids
    | Error errs ->
        List.iter (fun e -> Printf.eprintf "%s: %s\n" file e) errs;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a Chrome trace_event JSON file (as emitted by --trace): \
          well-formed JSON, known phases, monotone timestamps, matched B/E \
          span pairs per lane.")
    Term.(const run $ file_arg)

(* --- cache (maintenance) ------------------------------------------------------ *)

let cache_cmd =
  let stats_cmd =
    let run dir =
      let c = E.Cache.open_ ?dir () in
      let s = E.Cache.disk_stats c in
      Printf.printf "cache %s (version %s)\n" (E.Cache.dir c) (E.Cache.version c);
      Printf.printf "  entries      %6d  (%d bytes)\n" s.E.Cache.entries
        s.E.Cache.entry_bytes;
      Printf.printf "  quarantined  %6d  (%d bytes)\n" s.E.Cache.quarantined_files
        s.E.Cache.quarantined_bytes;
      Printf.printf "  stale tmp    %6d\n" s.E.Cache.tmp_files
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Entry, quarantine and stale-temp-file counts for the cache.")
      Term.(const run $ Cli.cache_dir)
  in
  let verify_cmd =
    let run dir =
      let c = E.Cache.open_ ?dir () in
      let r = E.Cache.verify c in
      Printf.printf "checked %d entries: %d intact, %d damaged%s\n"
        r.E.Cache.checked r.E.Cache.intact r.E.Cache.damaged
        (if r.E.Cache.damaged = 0 then "" else " (moved to quarantine)");
      if r.E.Cache.damaged > 0 then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Read every cache entry and quarantine the damaged ones; exits \
            non-zero when any entry was damaged.")
      Term.(const run $ Cli.cache_dir)
  in
  let gc_cmd =
    let all_arg =
      Arg.(value & flag
           & info [ "all" ]
               ~doc:"Also remove every entry, not just quarantine and temp \
                     litter.")
    in
    let run dir all =
      let c = E.Cache.open_ ?dir () in
      let r = E.Cache.gc ~all c in
      Printf.printf "removed %d files (%d bytes)\n" r.E.Cache.removed_files
        r.E.Cache.removed_bytes
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Remove stale temp files and quarantined entries; with $(b,--all), \
            empty the cache.")
      Term.(const run $ Cli.cache_dir $ all_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain the on-disk result cache (stats/verify/gc).")
    [ stats_cmd; verify_cmd; gc_cmd ]

(* --------------------------------------------------------------------------- *)

let () =
  let info =
    Cmd.info "mlc" ~version:"1.0.0"
      ~doc:"Locality optimizations for multi-level caches (SC '99 reproduction)."
  in
  let group =
    Cmd.group info
      [
        list_cmd; simulate_cmd; sweep_cmd; layout_cmd; arcs_cmd; fuse_cmd; tile_cmd;
        run_cmd; curve_cmd; emit_cmd; compile_cmd; trace_check_cmd; cache_cmd;
        Bench.cmd;
      ]
  in
  Cli.eval group
