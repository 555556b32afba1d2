(* The traced run: each cell composed layer by layer, in [Job.execute]'s
   order, with an [Obs] span around every call into a layer.

   Span names double as the per-layer metric keys (see [Bench.per_layer_metrics]):
   [build:*] kernel builders, [fuse] for [Fusion.fuse_program],
   [pass:<name>] for each [Pass.run_one], [sim] for [Fast_sim.create] +
   [Interp.run_sim] (the library nests its own [sim:run] span inside),
   [cost], [analysis:fusion_count], [cache:store] and [cache:find].  The
   [pass:<name>] spans carry the names the library's [Pass.instrument]
   uses.  Fusion's candidate search calls [Grouppad.apply] directly, not
   through a pass, so that GROUPPAD time counts as [pass:fusion].

   With no buffer installed the spans cost nothing, so the same functions
   also serve the untraced checks. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module E = Mlc_engine
module L = Locality
module Obs = Mlc_obs.Obs

let span name f = Obs.with_span ~cat:"bench" name f

let machine = Cs.Machine.ultrasparc

let registry name n =
  span "build:registry" (fun () ->
      Obs.count "kernels.builds";
      Cells.build_kernel name n)

let rec build_program = function
  | E.Job.Registry { name; n } -> registry name n
  | E.Job.Fused { base; at; max_shift } ->
      let p = build_program base in
      span "fuse" (fun () -> L.Fusion.fuse_program ~max_shift p at)
  | E.Job.Matmul { n } ->
      span "build:matmul" (fun () ->
          Obs.count "kernels.builds";
          L.Tiling.matmul n)
  | E.Job.Tiled_matmul { n; h; w } ->
      span "build:tiled_matmul" (fun () ->
          Obs.count "kernels.builds";
          L.Tiling.tiled_matmul ~n ~h ~w)
  | E.Job.Paper _ | E.Job.Time_sweep _ | E.Job.Time_tiled _ ->
      invalid_arg "Layers.build_program: program kind used by no workload"

(* [Pass.run_all]'s fold, one span per applicable pass. *)
let run_passes passes (program, layout) =
  List.fold_left
    (fun ((p, l, events) as acc) (pass : L.Pass.t) ->
      if not (pass.L.Pass.applies machine p) then acc
      else
        span ("pass:" ^ pass.L.Pass.name) (fun () ->
            let p, l, e = L.Pass.run_one machine pass (p, l) in
            if e <> [] then
              Obs.count ~n:(List.length e) ("pass." ^ pass.L.Pass.name ^ ".decisions");
            (p, l, events @ e)))
    (program, layout, []) passes

let layout_of lspec program =
  match lspec with
  | E.Job.Strategy s ->
      let _, layout, _ =
        run_passes (L.Pipeline.passes s) (program, Layout.initial program)
      in
      layout
  | E.Job.Initial -> Layout.initial program
  | E.Job.Pad_assoc _ -> invalid_arg "Layers.layout_of: layout used by no workload"

(* [Job.count_nests], which the engine does not export. *)
let count_nests target (program : Program.t) =
  match target with
  | E.Job.Nests is -> List.map (List.nth program.Program.nests) is
  | E.Job.Largest_body ->
      let size n = List.length (Nest.refs n) in
      [
        List.fold_left
          (fun best n -> if size n > size best then n else best)
          (List.hd program.Program.nests) program.Program.nests;
      ]

let simulate (spec : E.Job.spec) =
  if spec.E.Job.machine <> E.Job.machine "ultrasparc" || spec.E.Job.backend <> `Fast
  then invalid_arg "Layers.simulate: machine or backend used by no workload";
  let program = build_program spec.E.Job.program in
  let layout = layout_of spec.E.Job.layout program in
  let sim, interp =
    span "sim" (fun () ->
        let sim = Cs.Fast_sim.create machine.Cs.Machine.geometries in
        (sim, Interp.run_sim sim machine layout program))
  in
  let live = Cs.Fast_sim.level_stats sim in
  let cost_breakdown =
    span "cost" (fun () ->
        Cs.Cost_model.breakdown_of_stats machine.Cs.Machine.cost live)
  in
  let predicted =
    if spec.E.Job.predict then
      Some
        (span "analysis:predict" (fun () ->
             An.Miss_predict.program_misses layout machine program))
    else None
  in
  let counts =
    Option.map
      (fun (lspec, target) ->
        let lay = layout_of lspec program in
        span "analysis:fusion_count" (fun () ->
            An.Fusion_model.count lay ~l1_size:(Cs.Machine.s1 machine)
              (count_nests target program)))
      spec.E.Job.count
  in
  {
    E.Job.key = E.Job.canonical spec;
    interp;
    level_stats = List.map (fun s -> Cs.Stats.add (Cs.Stats.zero ()) s) live;
    cost_breakdown;
    predicted;
    counts;
  }

(* Store the composed result into a fresh cache and read it back, as a
   cold cell followed by a warm rerun would. *)
let round_trip cache spec result =
  span "cache:store" (fun () -> E.Cache.store cache spec result);
  span "cache:find" (fun () -> E.Cache.find cache spec)

let compile name n =
  let program = registry name n in
  let program, layout, _ =
    run_passes L.Compiler.default_passes (program, Layout.initial program)
  in
  (program, layout)

(* --- self time per span name --------------------------------------------- *)

type frame = { name : string; start : int; mutable child : int }

(* [(name, (spans, self_us))], sorted by name.  A span's self time is its
   duration minus the time its direct children cover. *)
let fold_self buf =
  let tbl = Hashtbl.create 32 in
  let stack = ref [] in
  List.iter
    (fun (ev : Obs.event) ->
      match ev.Obs.kind with
      | Obs.Span_begin -> stack := { name = ev.Obs.name; start = ev.Obs.ts; child = 0 } :: !stack
      | Obs.Span_end -> (
          match !stack with
          | f :: rest ->
              let dur = ev.Obs.ts - f.start in
              let n, self = Option.value (Hashtbl.find_opt tbl f.name) ~default:(0, 0) in
              Hashtbl.replace tbl f.name (n + 1, self + dur - f.child);
              (match rest with p :: _ -> p.child <- p.child + dur | [] -> ());
              stack := rest
          | [] -> failwith "fold_self: unbalanced span end")
      | Obs.Instant | Obs.Sample -> ())
    (Obs.Buf.events buf);
  if !stack <> [] then failwith "fold_self: unclosed span";
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
