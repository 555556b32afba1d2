(* Same-process A/B timing of the fast simulator.  [run.sh] builds this
   program beside a revision's [Fast_sim] and [Interp], renamed
   [Fast_sim_base] and [Interp_base], and the working tree's library.
   It simulates perfbench's kernel_table and grouppad_sweep cells (their
   committed sizes) with both versions, alternating per cell, and with
   the working tree's twice (the A/A line).

   Usage: main.exe REPS [FILTER]: only the cells whose label contains
   FILTER, when given.  Each cell is set up once (kernel build and
   layout passes, untimed); then each of REPS rounds times one
   [Interp.run_sim] on a fresh simulator per version, in an order that
   rotates per round.  Any difference in a cell's per-level stats fails
   the run (exit 1).  Output: per cell, the minimum base and head times
   and the median head/base and A/A ratios; then the sum of per-cell
   minima. *)

module Cs = Mlc_cachesim
module E = Mlc_engine

let machine = Cs.Machine.ultrasparc
let geoms = machine.Cs.Machine.geometries

let seconds f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let minimum = List.fold_left Float.min Float.infinity

let () =
  let reps = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5 in
  let wanted label =
    Array.length Sys.argv < 3
    ||
    let f = Sys.argv.(2) in
    let n = String.length f in
    let rec at i = i + n <= String.length label && (String.sub label i n = f || at (i + 1)) in
    at 0
  in
  let cells =
    List.concat_map
      (fun w ->
        List.filter_map
          (function
            | Cells.Sim spec when wanted (E.Job.describe spec) -> Some spec
            | Cells.Sim _ | Cells.Compile _ -> None)
          (Array.to_list (Cells.build w)))
      [ "kernel_table"; "grouppad_sweep" ]
  in
  let sum_base = ref 0. and sum_head = ref 0. and sum_aa = ref 0. and failed = ref false in
  Printf.printf "%-62s %9s %9s %8s %8s\n%!" "cell" "base ms" "head ms" "head/bs" "A/A";
  List.iter
    (fun (spec : E.Job.spec) ->
      let program = Layers.build_program spec.E.Job.program in
      let layout = Layers.layout_of spec.E.Job.layout program in
      let base () =
        (Interp_base.run_sim (Fast_sim_base.create geoms) machine layout program)
          .Interp_base.levels
      in
      let head () =
        (Mlc_ir.Interp.run_sim (Cs.Fast_sim.create geoms) machine layout program)
          .Mlc_ir.Interp.levels
      in
      (* per round: base, head and head again, in a rotating order *)
      let runs = [| base; head; head |] in
      let times = Array.make 3 [] in
      let stats = Array.make 3 [] in
      for k = 0 to reps - 1 do
        for i = 0 to 2 do
          let v = (i + k) mod 3 in
          let t, s = seconds runs.(v) in
          times.(v) <- (1000. *. t) :: times.(v);
          stats.(v) <- s
        done
      done;
      let label = E.Job.describe spec in
      if stats.(0) <> stats.(1) || stats.(1) <> stats.(2) then begin
        Printf.printf "MISMATCH %s: per-level stats differ between versions\n%!" label;
        failed := true
      end;
      let ratios a b = List.map2 (fun x y -> x /. y) a b in
      let b = minimum times.(0) and h = minimum times.(1) and h' = minimum times.(2) in
      sum_base := !sum_base +. b;
      sum_head := !sum_head +. h;
      sum_aa := !sum_aa +. h';
      Printf.printf "%-62s %9.2f %9.2f %8.3f %8.3f\n%!" label b h
        (median (ratios times.(1) times.(0)))
        (median (ratios times.(2) times.(1))))
    cells;
  Printf.printf "sum of per-cell minima: base %.1f ms, head %.1f ms, head/base %.3f\n"
    !sum_base !sum_head (!sum_head /. !sum_base);
  Printf.printf "A/A: head %.1f ms, head again %.1f ms, ratio %.3f\n" !sum_head !sum_aa
    (!sum_aa /. !sum_head);
  if !failed then exit 1
