(* Cold, single-worker benchmark of the reproduction's two costs: the
   layout passes and the cache simulation.

     perfbench/bench.exe --workload W --seed N --seconds S --trace 0|1
     perfbench/bench.exe --write-expected

   One process runs one workload (see [Cells]).  Every simulation cell
   goes through [Engine.run_collect ~jobs:1], one cell per call, against
   its own fresh, empty cache directory; every compile cell goes through
   [Compiler.optimize] with the default passes.  No [Obs] buffer is
   installed while timing.

   [--trace 0] times several passes over the cells, each in its own
   seed-drawn order, and prints the end-to-end metrics.
   [--trace 1] runs one pass through the engine, then composes every cell
   layer by layer ([Layers]) four times, alternating without and with an
   [Obs] buffer, writes and validates the Chrome trace of the first traced
   composition, and prints the per-layer metrics.

   Either way the outputs are checked, outside the timed region, and the
   last line of stdout is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Any wrong or failed cell makes the exit code 1. *)

open Mlc_ir
module E = Mlc_engine
module L = Locality
module Obs = Mlc_obs.Obs

let expected_path = Filename.concat "perfbench" "expected.json"
let out_dir = Filename.concat "perfbench" "_out"

(* A held-out seed checks its untimed cells in a seed-shuffled order:
   simulation cells against the [`Reference] backend, which is about
   three times slower than [`Fast], while their references fit this
   budget; at most [held_out_cells] cells of any kind. *)
let reference_budget_refs = 20_000_000
let held_out_cells = 4

(* Set-up runs in [setup_groups] groups of a fixed number of repeats per
   workload, about a quarter of a second per group, so that millisecond
   set-ups are not timed one at a time; [setup_s] is the median over the
   groups of a group's time per repeat.  The groups run before the first
   timed pass, and their garbage is compacted away before it starts. *)
let setup_groups = 5

let setup_group_size = function "kernel_table" -> 2 | _ -> 200

let fail_usage fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- statistics ------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a and n = Array.length a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the
   (n-10)th smallest sample, reported with its percentile; the largest
   sample when there are ten or fewer. *)
let tail a =
  let s = sorted a and n = Array.length a in
  if n <= 10 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* --- host speed ---------------------------------------------------------------- *)

(* On the shared host each vCPU switches, every few seconds to minutes,
   between speeds up to twice apart, as a co-tenant on the same physical
   core comes and goes (see README.md); the whole program, set-up
   included, slows with it.  Before every timed cell and every set-up
   group the benchmark times a probe on each CPU it may use: its own loop
   of integer operations on an 8 KB array followed by a multiply chain,
   which shares no code with the program.  It pins itself to the fastest
   CPU, so that the cell runs on a core the co-tenant is leaving alone
   when there is one, and keeps that CPU's probe time.  Times are then
   reported in probe-normalised seconds: measured seconds scaled by
   [probe_ref_s] over the median probe time of the same pass (of the
   set-up groups, for [setup_s]).  [probe_ref_s] is the probe's time on a
   clear core of the 2-core x86-64 VM the benchmark was written on, so
   there a normalised second is a second.  A change to the program moves
   a normalised time exactly as it moves the measured one, which every
   run prints as well. *)
let probe_ref_s = 200e-6

external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin_cpu : int -> bool = "perfbench_pin_cpu"

let cpus = allowed_cpus ()

(* Cells and set-up groups run on each CPU. *)
let cpu_picks = Hashtbl.create 4

let probe_arr = Array.make 1024 0

let probe () =
  let t0 = now () in
  let a = ref 1 and b = ref 2 and c = ref 3 in
  for i = 0 to 50_000 do
    let j = i land 1023 in
    a := !a + probe_arr.(j);
    b := !b lxor (!a lsl 1);
    c := !c + (!b land 255) + probe_arr.((j * 7) land 1023);
    probe_arr.(j) <- !c
  done;
  let y = ref 1 in
  for i = 1 to 50_000 do
    y := ((!y * 1103515245) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !y));
  now () -. t0

(* Pins the thread to the CPU that runs the probe fastest, and returns
   that probe time; with one CPU, only times the probe there. *)
let pick_cpu () =
  let speed cpu =
    if List.length cpus < 2 || pin_cpu cpu then Float.min (probe ()) (probe ()) else infinity
  in
  let t, best =
    List.fold_left
      (fun (t, best) cpu ->
        let t' = speed cpu in
        if t' < t then (t', cpu) else (t, best))
      (infinity, -1) cpus
  in
  if List.length cpus > 1 then ignore (pin_cpu best);
  Hashtbl.replace cpu_picks best (1 + Option.value (Hashtbl.find_opt cpu_picks best) ~default:0);
  if Float.is_finite t then t else probe ()

(* --- set-up ---------------------------------------------------------------- *)

type setup = {
  cells : Cells.cell array;
  cache : E.Cache.t;  (** the run's cache root *)
  oracle : Oracle.t;
}

let setup ~workload ~root =
  let cells = Cells.build workload in
  let cache = E.Cache.open_ ~version:"perfbench" ~dir:root () in
  { cells; cache; oracle = Oracle.load expected_path }

(* A fresh, empty cache directory per cell and pass, opened outside the
   timed region. *)
let fresh_caches s ~pass =
  Array.mapi
    (fun i _ ->
      E.Cache.open_ ~version:"perfbench"
        ~dir:(Filename.concat (E.Cache.dir s.cache) (Printf.sprintf "%s/c%d" pass i))
        ())
    s.cells

(* --- timed cells ----------------------------------------------------------- *)

(* What the checks keep of a cell's result: all of a simulation cell's,
   and a compile cell's pads, program text and [Validate.check] issues
   (not its program, so that no pass carries the programs of earlier
   cells in its heap). *)
type summary = { compiled : Oracle.compiled; issues : string list }

type outcome =
  | Simulated of E.Job.result
  | Compiled of summary
  | Failed of { msg : string; attempts : int }

let summarise (r : L.Compiler.result) =
  {
    compiled = Oracle.compiled_of r;
    issues = List.map (Format.asprintf "%a" Validate.pp_issue) (Validate.check r.L.Compiler.program);
  }

(* Runs one cell; a compile cell's result is summarised by [outcome_of],
   outside the cell's timing. *)
let run_cell cache = function
  | Cells.Sim spec -> (
      match E.Engine.run_collect ~cache ~jobs:1 [| spec |] with
      | [| Some (Ok r) |] -> `Done (Simulated r)
      | [| Some (Error f) |] ->
          `Done
            (Failed
               { msg = Format.asprintf "%a" E.Fault.pp_failure f; attempts = f.E.Fault.attempts })
      | _ -> `Done (Failed { msg = "cell never ran"; attempts = 0 }))
  | Cells.Compile { name; n } -> (
      match
        L.Compiler.optimize ~passes:L.Compiler.default_passes Layers.machine
          (Cells.build_kernel name n)
      with
      | r -> `Compiled r
      | exception e -> `Done (Failed { msg = Printexc.to_string e; attempts = 1 }))

let outcome_of = function `Done o -> o | `Compiled r -> Compiled (summarise r)

(* A seed-drawn permutation of [0, n). *)
let shuffle ~seed ~salt n =
  let order = Array.init n Fun.id in
  let st = Random.State.make [| seed; salt |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

(* The order in which pass [pass] runs the cells: drawn from the seed
   afresh for every pass, so that no cell always follows the same one. *)
let order ~seed ~pass n = shuffle ~seed ~salt:(1000 + pass) n

(* Runs every cell once, in [order], each on the CPU [pick_cpu] chose for
   it and after a full major collection, so that no cell pays for the
   garbage of the one before, which the order decides: the pass's wall
   time and median probe time, and per cell (not per position in the
   order) its latency in seconds, outcome and cache. *)
let timed_pass s ~seed ~pass =
  let cells = s.cells in
  let caches = fresh_caches s ~pass:(Printf.sprintf "p%d" pass) in
  let n = Array.length cells in
  let lat = Array.make n 0.0 and probes = Array.make n 0.0 in
  let outs = Array.make n (Failed { msg = "cell never ran"; attempts = 0 }) in
  let t0 = now () in
  Array.iter
    (fun i ->
      Gc.full_major ();
      probes.(i) <- pick_cpu ();
      let c0 = now () in
      let r = run_cell caches.(i) cells.(i) in
      lat.(i) <- now () -. c0;
      outs.(i) <- outcome_of r)
    (order ~seed ~pass n);
  ((now () -. t0, median probes), lat, outs, caches)

(* Every workload's timed cell list takes about this long per pass on a
   2-core x86-64 VM, so a run of [seconds] plans [seconds /. nominal_pass_s]
   passes, rounded (at least one): four with [--seconds 24].  On a host
   slow enough that one more pass would take the passes past
   [overrun] times [seconds], the run stops early, after two passes at
   least, so that a run's length stays bounded. *)
let nominal_pass_s = 6.0
let overrun = 1.25

(* --- checks (never timed) ------------------------------------------------- *)

let same a b = compare a b = 0

(* Two outcomes of one cell agree when their results are equal; a compile
   cell's result is its pads, program text and Validate issue count. *)
let agree a b =
  match (a, b) with
  | Simulated a, Simulated b -> same a b
  | Compiled a, Compiled b -> same a.compiled b.compiled
  | _ -> false

type check_counts = {
  mutable held_out_checked : int;  (** held-out cells checked, untimed *)
  mutable held_out_wrong : int;
  mutable by_oracle : int;
  mutable by_reference : int;
  mutable reference_refs : int;
  mutable by_composition : int;
  mutable cache_finds : int;
  mutable problems : string list;
  mutable known : string list;  (** known defects, reported but not failed *)
}

let problem c fmt = Printf.ksprintf (fun s -> c.problems <- s :: c.problems) fmt

(* A [`Fast] result agrees with the [`Reference] run of its spec when the
   per-level stats, cost breakdown, counts and interpreter totals are
   equal. *)
let matches_reference (r : E.Job.result) (spec : E.Job.spec) c =
  c.by_reference <- c.by_reference + 1;
  c.reference_refs <- c.reference_refs + r.E.Job.interp.Interp.total_refs;
  let ref_r = E.Job.execute { spec with E.Job.backend = `Reference } in
  same (Oracle.sim_of ref_r) (Oracle.sim_of r) && same ref_r.E.Job.interp r.E.Job.interp

(* A compiled program that fails [Validate.check]: a known defect if the
   kernel's optimized program already failed it at the commit that
   recorded expected.json (reported on every run, not counted as a wrong
   cell); [wrong] otherwise. *)
let validate s c ~key ~name ~issues ~wrong =
  match issues with
  | [] -> ()
  | issues -> (
      let text = String.concat "; " issues in
      match
        Hashtbl.find_opt s.oracle.Oracle.compiled (Cells.key (Cells.Compile { name; n = None }))
      with
      | Some recorded when recorded.Oracle.issues > 0 ->
          c.known <- Printf.sprintf "%s: %s" key text :: c.known
      | _ -> wrong (Printf.sprintf "%s: optimized program fails Validate.check: %s" key text))

(* Checks the first timed pass against expected.json, which covers every
   timed cell (all are at committed sizes); returns, per cell, whether its
   result is right. *)
let check_first s (first : outcome array) c =
  let cells = s.cells in
  let right = Array.make (Array.length cells) true in
  let wrong i msg =
    right.(i) <- false;
    problem c "%s" msg
  in
  Array.iteri
    (fun i cell ->
      let key = Cells.key cell in
      let wrong = wrong i in
      match (cell, first.(i)) with
      | _, Failed { msg; _ } -> wrong (Printf.sprintf "%s: failed: %s" key msg)
      | Cells.Sim _, Simulated r -> (
          match Hashtbl.find_opt s.oracle.Oracle.sims key with
          | Some expected ->
              c.by_oracle <- c.by_oracle + 1;
              if not (same expected (Oracle.sim_of r)) then
                wrong (key ^ ": per-level stats, cost or counts differ from expected.json")
          | None -> wrong (key ^ ": no entry in expected.json"))
      | Cells.Compile { name; _ }, Compiled { compiled; issues } -> (
          validate s c ~key ~name ~issues ~wrong;
          match Hashtbl.find_opt s.oracle.Oracle.compiled key with
          | Some expected ->
              c.by_oracle <- c.by_oracle + 1;
              if not (same expected compiled) then
                wrong (key ^ ": pads, program text or Validate issues differ from expected.json")
          | None -> wrong (key ^ ": no entry in expected.json"))
      | _ -> wrong (key ^ ": outcome of the wrong kind"))
    cells;
  right

(* A pass's record once checked: its times and, per cell, whether that
   cell execution is wrong or failed. *)
type pass = {
  wall : float;
  lat : float array;  (** seconds, per cell *)
  probe_s : float;  (** median probe time over the pass *)
  bad : bool array;
  failures : int;
  retries : int;
}

(* Checks a timed pass against the first: deterministic outputs repeat
   exactly, and each cold store reads back equal. *)
let check_pass s ~right ~(first : outcome array) ~pass ((wall, probe_s), lat, outs, caches) c =
  let cells = s.cells in
  let bad =
    Array.mapi
      (fun i o ->
        let key = Cells.key cells.(i) in
        let bad = ref (not right.(i)) in
        if not (agree o first.(i)) then begin
          bad := true;
          if right.(i) then
            match o with
            | Failed { msg; _ } -> problem c "%s: failed in pass %d: %s" key pass msg
            | _ -> problem c "%s: pass %d differs from pass 0" key pass
        end;
        (match (cells.(i), o) with
        | Cells.Sim spec, Simulated r -> (
            c.cache_finds <- c.cache_finds + 1;
            match E.Cache.find caches.(i) spec with
            | Some back when same back r -> ()
            | _ ->
                bad := true;
                problem c "%s: Cache.find after the cold run differs" key)
        | _ -> ());
        !bad)
      outs
  in
  let failures, retries =
    Array.fold_left
      (fun (f, r) o ->
        match o with
        | Failed { attempts; _ } -> (f + 1, r + max 0 (attempts - 1))
        | _ -> (f, r))
      (0, 0) outs
  in
  { wall; probe_s; lat; bad; failures; retries }

(* A held-out seed's untimed cells, in a seed-shuffled order, until
   [held_out_cells] are checked: a simulation cell is run on [`Fast] and,
   if its references fit what is left of [reference_budget_refs], checked
   against the [`Reference] backend (one that does not fit is passed
   over); a compile cell's [Compiler.optimize] result must equal its
   pass-by-pass composition and pass [Validate.check]. *)
let check_held_out ~seed ~workload s c =
  let cells = Cells.held_out ~seed workload in
  let refs = ref 0 in
  Array.iter
    (fun i ->
      let cell = cells.(i) in
      let key = Cells.key cell ^ " (held out, untimed)" in
      let wrong msg =
        c.held_out_wrong <- c.held_out_wrong + 1;
        problem c "%s" msg
      in
      if c.held_out_checked < held_out_cells then
        match cell with
        | Cells.Sim spec -> (
            match E.Job.execute spec with
            | r ->
                let cost = r.E.Job.interp.Interp.total_refs in
                if !refs + cost <= reference_budget_refs then begin
                  refs := !refs + cost;
                  c.held_out_checked <- c.held_out_checked + 1;
                  if not (matches_reference r spec c) then
                    wrong (key ^ ": differs from the reference simulator")
                end
            | exception e ->
                c.held_out_checked <- c.held_out_checked + 1;
                wrong (key ^ ": failed: " ^ Printexc.to_string e))
        | Cells.Compile { name; n } -> (
            c.held_out_checked <- c.held_out_checked + 1;
            match
              L.Compiler.optimize ~passes:L.Compiler.default_passes Layers.machine
                (Cells.build_kernel name n)
            with
            | r -> (
                c.by_composition <- c.by_composition + 1;
                let program, layout = Layers.compile name n in
                let got = summarise r in
                if not (same got.compiled (Oracle.compiled_of { r with L.Compiler.program; layout }))
                then wrong (key ^ ": pass-by-pass composition differs from Compiler.optimize");
                validate s c ~key ~name ~issues:got.issues ~wrong)
            | exception e -> wrong (key ^ ": failed: " ^ Printexc.to_string e)))
    (shuffle ~seed ~salt:17 (Array.length cells))

(* --- layer-by-layer composition --------------------------------------------- *)

type composed = {
  buf : Obs.Buf.t option;  (** [None]: composed with no buffer installed *)
  wall : float;
  results : outcome array;
}

(* One pass composing every cell with [Layers], into caches opened
   beforehand; traced when [buf] is given.  Only the composition is inside
   the wall time.  The cache bytes written are counted afterwards. *)
let compose_pass s ~pass ~buf =
  let caches = fresh_caches s ~pass in
  let compose () =
    Array.mapi
      (fun i cell ->
        Obs.with_span ~cat:"bench" "cell"
          ~args:[ ("cell", `Str (Cells.label cell)) ]
          (fun () ->
            match cell with
            | Cells.Sim spec ->
                let r = Layers.simulate spec in
                if not (same (Layers.round_trip caches.(i) spec r) (Some r)) then
                  Failed { msg = "Cache.find after store differs"; attempts = 1 }
                else Simulated r
            | Cells.Compile { name; n } ->
                let program, layout = Layers.compile name n in
                Compiled (summarise { L.Compiler.program; layout; log = [] })))
      s.cells
  in
  let t0 = now () in
  let results = match buf with None -> compose () | Some b -> Obs.with_buf b compose in
  let wall = now () -. t0 in
  Option.iter
    (fun b ->
      Obs.with_buf b (fun () ->
          Array.iteri
            (fun i cell ->
              match cell with
              | Cells.Sim _ ->
                  Obs.count ~n:(E.Cache.disk_stats caches.(i)).E.Cache.entry_bytes
                    "engine.cache.bytes"
              | Cells.Compile _ -> ())
            s.cells))
    buf;
  { buf; wall; results }

(* --- output ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : [ `F of float | `I of int ] }

let json_number = function
  | `I i -> string_of_int i
  | `F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | `F _ -> "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14s %s\n" m.name
        (match m.value with `I i -> string_of_int i | `F f -> Printf.sprintf "%.4f" f)
        m.unit_)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
              (json_number m.value) m.unit_)
          metrics))

let ms us = float_of_int us /. 1000.0

let layer_passes = [ "permute"; "fusion"; "intra-pad"; "pad"; "multilvlpad"; "grouppad"; "l2maxpad" ]

let per_layer_metrics ~buf ~results ~overhead_pct ~failures ~retries =
  let self = Layers.fold_self buf in
  let spans prefix_or_names =
    List.fold_left
      (fun (n, us) (name, (k, self_us)) ->
        if prefix_or_names name then (n + k, us + self_us) else (n, us))
      (0, 0) self
  in
  let span_ms names = ms (snd (spans (fun n -> List.mem n names))) in
  let counter = Obs.Buf.counter buf in
  let f name unit_ v = { name; unit_; value = `F v } in
  let i name unit_ v = { name; unit_; value = `I v } in
  let builds_ms = ms (snd (spans (String.starts_with ~prefix:"build:"))) in
  let passes =
    List.concat_map
      (fun p ->
        let calls, us = spans (fun n -> n = "pass:" ^ p) in
        [
          f ("pass." ^ p ^ ".ms") "ms" (ms us);
          i ("pass." ^ p ^ ".calls") "count" calls;
          i ("pass." ^ p ^ ".decisions") "count" (counter ("pass." ^ p ^ ".decisions"));
        ])
      layer_passes
  in
  let sim_ms = span_ms [ "sim"; "sim:run" ] in
  let refs = counter "sim.refs" in
  let bulk = counter "sim.fast.bulk_iterations"
  and seq = counter "sim.fast.seq_iterations" in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  (self,
  [ f "kernels.build_ms" "ms" builds_ms; i "kernels.builds" "count" (counter "kernels.builds") ]
  @ passes
  @ [
      f "fuse.ms" "ms" (span_ms [ "fuse" ]);
      f "analysis.fusion_count_ms" "ms" (span_ms [ "analysis:fusion_count" ]);
      f "tile_size.select_ms" "ms" (span_ms [ "tile_size:select" ]);
      f "sim.ms" "ms" sim_ms;
      i "sim.refs" "count" refs;
      f "sim.ns_per_ref" "ns" (ratio (sim_ms *. 1e6) (float_of_int refs));
      i "sim.L1.misses" "count" (counter "sim.L1.misses");
      i "sim.L2.misses" "count" (counter "sim.L2.misses");
      i "sim.fast.bulk_iterations" "count" bulk;
      i "sim.fast.seq_iterations" "count" seq;
      i "sim.fast.bulk_segments" "count" (counter "sim.fast.bulk_segments");
      f "sim.fast.bulk_share" "ratio" (ratio (float_of_int bulk) (float_of_int (bulk + seq)));
      f "cost.ms" "ms" (span_ms [ "cost" ]);
      f "engine.cache.store_ms" "ms" (span_ms [ "cache:store" ]);
      f "engine.cache.find_ms" "ms" (span_ms [ "cache:find" ]);
      i "engine.cache.bytes" "bytes" (counter "engine.cache.bytes");
      i "compile.validate_issues" "count"
        (Array.fold_left
           (fun n o ->
             match o with
             | Compiled { issues; _ } -> n + List.length issues
             | _ -> n)
           0 results);
      i "engine.failures" "count" failures;
      i "engine.retries" "count" retries;
      f "obs.overhead_pct" "%" overhead_pct;
    ])

(* The counters that must repeat exactly, as counts. *)
let deterministic_counters buf =
  List.filter
    (fun (name, _) ->
      name = "kernels.builds"
      || String.starts_with ~prefix:"sim." name
      || (String.starts_with ~prefix:"pass." name
         && String.ends_with ~suffix:".decisions" name))
    (Obs.Buf.counters buf)

(* --- main ------------------------------------------------------------------- *)

let write_expected () =
  let sims = ref [] and compiles = ref [] in
  List.iter
    (fun w ->
      Array.iter
        (fun cell ->
          let key = Cells.key cell in
          match cell with
          | Cells.Sim spec when not (List.mem_assoc key !sims) ->
              let r = E.Job.execute { spec with E.Job.backend = `Reference } in
              sims := (key, Oracle.sim_of r) :: !sims
          | Cells.Compile { name; n } when not (List.mem_assoc key !compiles) ->
              let r =
                L.Compiler.optimize ~passes:L.Compiler.default_passes Layers.machine
                  (Cells.build_kernel name n)
              in
              compiles := (key, Oracle.compiled_of r) :: !compiles
          | _ -> ())
        (Cells.build w);
      Printf.eprintf "perfbench: recorded %s\n%!" w)
    Cells.workloads;
  Oracle.write expected_path ~seed:Cells.committed_seed ~sims:(List.rev !sims)
    ~compiles:(List.rev !compiles)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 0 and trace = ref (-1) in
  let write = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: n :: rest ->
        seconds := Option.value (int_of_string_opt n) ~default:0; parse rest
    | "--trace" :: n :: rest ->
        trace := Option.value (int_of_string_opt n) ~default:(-1); parse rest
    | "--write-expected" :: rest -> write := true; parse rest
    | [] -> ()
    | arg :: _ -> fail_usage "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !write then (write_expected (); exit 0);
  if not (List.mem !workload Cells.workloads) then
    fail_usage "--workload must be one of %s" (String.concat ", " Cells.workloads);
  let seed = match !seed with Some s -> s | None -> fail_usage "--seed N is required" in
  if !seconds < 1 then fail_usage "--seconds must be a positive integer";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  if not (Sys.file_exists expected_path) then
    fail_usage "%s not found: run from the repository root" expected_path;
  let workload = !workload and traced_run = !trace = 1 in
  let root = Filename.concat out_dir (Printf.sprintf "work-%d" (Unix.getpid ())) in
  (* The cache directories go away however the run ends. *)
  at_exit (fun () -> rm_rf root);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  (* One group of set-ups: its time per repeat and its last set-up. *)
  let setup_group g =
    let group = setup_group_size workload in
    let last = ref None in
    let probe_s = pick_cpu () in
    let t0 = now () in
    for k = 0 to group - 1 do
      last :=
        Some
          (setup ~workload
             ~root:(Filename.concat root (Printf.sprintf "setup%d-%d" g k)))
    done;
    ((now () -. t0) /. float_of_int group, probe_s, Option.get !last)
  in
  let groups = List.init setup_groups setup_group in
  let setup_raw = median (Array.of_list (List.map (fun (t, _, _) -> t) groups))
  and setup_probe = median (Array.of_list (List.map (fun (_, p, _) -> p) groups)) in
  let setup_s = setup_raw *. probe_ref_s /. setup_probe in
  let s = match groups with (_, _, s) :: _ -> s | [] -> assert false in
  let n_cells = Array.length s.cells in
  (* The traced run makes one engine pass here and four compositions
     below. *)
  let passes =
    if traced_run then 1
    else
      max 1 (Float.to_int (Float.round (float_of_int !seconds /. nominal_pass_s)))
  in
  let c =
    {
      held_out_checked = 0;
      held_out_wrong = 0;
      by_oracle = 0;
      by_reference = 0;
      reference_refs = 0;
      by_composition = 0;
      cache_finds = 0;
      problems = [];
      known = [];
    }
  in
  (* Each pass starts from a compacted heap, as a fresh process would, and
     is checked as soon as it ends; only the first pass's results are kept,
     for the later passes to be compared with. *)
  let first = ref [||] and right = ref [||] in
  let rec timed_passes pass spent acc =
    let mean = if pass = 0 then 0.0 else spent /. float_of_int pass in
    if
      pass = passes
      || (pass >= 2 && spent +. mean > overrun *. float_of_int !seconds)
    then Array.of_list (List.rev acc)
    else begin
      Gc.compact ();
      let ((_, _, outs, _) as timed) = timed_pass s ~seed ~pass in
      if pass = 0 then begin
        first := outs;
        right := check_first s outs c
      end;
      let r = check_pass s ~right:!right ~first:!first ~pass timed c in
      timed_passes (pass + 1) (spent +. r.wall) (r :: acc)
    end
  in
  let runs = timed_passes 0 0.0 [] in
  let passes = Array.length runs in
  let peak_rss_mb = vm_hwm_mb () in
  Printf.printf "perfbench %s: seed %d%s, %d cells x %d pass%s\n%!" workload seed
    (if seed = Cells.committed_seed then " (committed)" else " (held out)")
    n_cells passes
    (if passes = 1 then "" else "es");
  check_held_out ~seed ~workload s c;
  let attempted = (passes * n_cells) + c.held_out_checked in
  let failed =
    Array.fold_left
      (fun n r -> Array.fold_left (fun n b -> if b then n + 1 else n) n r.bad)
      0 runs
    + c.held_out_wrong
  in
  let failures = Array.fold_left (fun n r -> n + r.failures) 0 runs
  and retries = Array.fold_left (fun n r -> n + r.retries) 0 runs in
  Printf.printf
    "checks: %d timed cells by expected.json, %d cache read-backs, %d passes \
     compared; %d held-out untimed cells (%d by the reference simulator, %d refs; \
     %d by pass-by-pass composition)\n"
    c.by_oracle c.cache_finds passes c.held_out_checked c.by_reference c.reference_refs
    c.by_composition;
  Printf.printf "cell_fail_ratio %g ratio (%d of %d cells wrong or failed)\n"
    (float_of_int failed /. float_of_int attempted)
    failed attempted;
  let metrics, extra_ok =
    if not traced_run then begin
      (* A cell's latency is its best over the passes: a co-tenant's
         burst only ever slows a cell, and every pass gives each cell
         another chance to run clear of one.  [scaled] is normalised by
         the pass's probe (see [probe_ref_s]), [raw] is as measured. *)
      let best lat_of =
        Array.init n_cells (fun i ->
            Array.fold_left (fun m (r : pass) -> Float.min m (lat_of r i)) infinity runs)
      in
      let scaled = best (fun r i -> r.lat.(i) *. probe_ref_s /. r.probe_s)
      and raw = best (fun r i -> r.lat.(i)) in
      let sum = Array.fold_left ( +. ) 0.0 in
      let tail_s, tail_pct = tail scaled in
      Printf.printf "cpu choice: %s\n"
        (String.concat ", "
           (List.map
              (fun cpu ->
                Printf.sprintf "cpu%d %d" cpu
                  (Option.value (Hashtbl.find_opt cpu_picks cpu) ~default:0))
              cpus));
      Printf.printf
        "cell latency: best of %d passes per cell; cell_ms_tail is p%.1f of %d cells; \
         pass wall times %s s\n"
        passes tail_pct n_cells
        (String.concat " " (Array.to_list (Array.map (fun (r : pass) -> Printf.sprintf "%.3f" r.wall) runs)));
      Printf.printf
        "probe: median %s us per pass, %.1f us over the set-up groups (reference %.1f us); \
         as measured: sweep_s %.4f s, cell_ms_p50 %.4f ms, cell_ms_tail %.4f ms, \
         setup_s %.6f s\n"
        (String.concat " "
           (Array.to_list (Array.map (fun (r : pass) -> Printf.sprintf "%.1f" (r.probe_s *. 1e6)) runs)))
        (setup_probe *. 1e6) (probe_ref_s *. 1e6) (sum raw) (1000.0 *. median raw)
        (1000.0 *. fst (tail raw)) setup_raw;
      ( [
          { name = "sweep_s"; unit_ = "s"; value = `F (sum scaled) };
          { name = "cell_ms_p50"; unit_ = "ms"; value = `F (1000.0 *. median scaled) };
          { name = "cell_ms_tail"; unit_ = "ms"; value = `F (1000.0 *. tail_s) };
          { name = "setup_s"; unit_ = "s"; value = `F setup_s };
          { name = "peak_rss_mb"; unit_ = "MB"; value = `F peak_rss_mb };
        ],
        true )
    end
    else begin
      let timed = !first in
      (* [tile_size.select_ms]: set-up once more, traced. *)
      let setup_buf = Obs.Buf.create () in
      Obs.with_buf setup_buf (fun () ->
          Obs.with_span ~cat:"bench" "setup" (fun () -> ignore (Cells.build workload)));
      (* Untraced and traced compositions alternate, so that
         [obs.overhead_pct] compares passes run back to back. *)
      let u1 = compose_pass s ~pass:"u1" ~buf:None in
      let t1 = compose_pass s ~pass:"t1" ~buf:(Some (Obs.Buf.create ())) in
      let u2 = compose_pass s ~pass:"u2" ~buf:None in
      let t2 = compose_pass s ~pass:"t2" ~buf:(Some (Obs.Buf.create ())) in
      let buf1 = Option.get t1.buf and buf2 = Option.get t2.buf in
      let ok = ref true in
      let fail fmt = Printf.ksprintf (fun m -> ok := false; print_endline ("FAIL " ^ m)) fmt in
      Array.iteri
        (fun i o ->
          let key = Cells.key s.cells.(i) in
          if not (agree o timed.(i)) then
            fail "%s: traced composition differs from the timed run" key;
          List.iter
            (fun (other : composed) ->
              if not (agree o other.results.(i)) then fail "%s: compositions differ" key)
            [ u1; u2; t2 ])
        t1.results;
      let d1 = deterministic_counters buf1 and d2 = deterministic_counters buf2 in
      if d1 <> d2 then fail "deterministic counters differ between traced repeats";
      (* Timed (untraced) totals against the traced counters. *)
      let timed_refs, timed_l1, timed_l2 =
        Array.fold_left
          (fun (r, m1, m2) o ->
            match o with
            | Simulated x -> (
                match x.E.Job.interp.Interp.misses with
                | a :: b :: _ -> (r + x.E.Job.interp.Interp.total_refs, m1 + a, m2 + b)
                | _ -> (r, m1, m2))
            | _ -> (r, m1, m2))
          (0, 0, 0) timed
      in
      let counter = Obs.Buf.counter buf1 in
      if
        (timed_refs, timed_l1, timed_l2)
        <> (counter "sim.refs", counter "sim.L1.misses", counter "sim.L2.misses")
      then fail "timed refs/misses differ from the traced counters";
      Obs.Buf.merge ~into:setup_buf buf1;
      (* [out_dir] exists: set-up opened the run's cache root inside it. *)
      let trace_file =
        Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" workload seed)
      in
      Out_channel.with_open_bin trace_file (fun oc ->
          Obs.Sink.write (Obs.Sink.chrome oc) setup_buf);
      (match Mlc_obs.Trace_check.validate_file trace_file with
      | Ok st ->
          Printf.printf "trace %s: %d events, %d spans, %d counters (valid)\n" trace_file
            st.Mlc_obs.Trace_check.events st.Mlc_obs.Trace_check.spans
            st.Mlc_obs.Trace_check.counters
      | Error errs -> fail "invalid trace %s: %s" trace_file (String.concat "; " errs));
      let untraced = u1.wall +. u2.wall and traced = t1.wall +. t2.wall in
      let self, metrics =
        per_layer_metrics ~buf:setup_buf ~results:t1.results
          ~overhead_pct:(100.0 *. (traced -. untraced) /. untraced)
          ~failures ~retries
      in
      let total = List.fold_left (fun acc (_, (_, us)) -> acc + us) 0 self in
      Printf.printf
        "self time per span (compositions: untraced %.3f s and %.3f s, traced %.3f s \
         and %.3f s):\n"
        u1.wall u2.wall t1.wall t2.wall;
      List.iter
        (fun (name, (n, us)) ->
          Printf.printf "  %-24s %7d spans %12.1f ms %6.1f%%\n" name n (ms us)
            (100.0 *. float_of_int us /. float_of_int (max 1 total)))
        (List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) self);
      Printf.printf "deterministic counters (repeat exactly):\n";
      List.iter (fun (k, v) -> Printf.printf "  %-32s %d\n" k v) d1;
      (metrics, !ok)
    end
  in
  List.iter
    (fun k -> print_endline ("KNOWN DEFECT (recorded in expected.json) " ^ k))
    (List.rev c.known);
  List.iter (fun p -> print_endline ("FAIL " ^ p)) (List.rev c.problems);
  let correct = failed = 0 && c.problems = [] && extra_ok in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
