module Cs = Mlc_cachesim
module Obs = Mlc_obs.Obs

type result = {
  total_refs : int;
  misses : int list;
  miss_rates : float list;
  memory_accesses : int;
  writebacks : int;
  flops : int;
  cycles : float;
  seconds : float;
  mflops : float;
  levels : Cs.Stats.t list;
}

(* Where the walker sends the reference stream.  [block] receives one
   two-loop segment: row [o], iteration [j] issues, for each reference
   [r] in order, [bases.(r) + o * outer_strides.(r) + j * strides.(r)];
   it must behave exactly as [outer_count * count * nrefs] calls to
   [access] in that order (rows, then iterations, then references)
   would. *)
type sink = {
  access : write:bool -> int -> unit;
  block :
    bases:int array ->
    strides:int array ->
    writes:bool array ->
    count:int ->
    outer_strides:int array ->
    outer_count:int ->
    unit;
}

(* Compiles a nest once and returns its walker, which pushes one full
   execution of the nest into [sink] and returns the flops executed.

   Every address is affine in the loop variables except for its gather
   terms, each [scale * table.(index)] with an affine [index].  So each
   reference gets one column holding its affine part (base, pads and
   affine dimensions folded in) and each gather term one more column
   holding its index; a column is a constant plus one stride per loop
   level, and [partials.(l).(c)] holds the constant plus the
   contribution of the loop levels below [l], so each loop level costs
   one add per column.  When no reference gathers, the innermost loop
   goes to [sink.block]: together with the loop around it as one
   two-loop segment when its bounds do not mention that loop's variable
   (so every row starts at the same iteration and has the same trip
   count), else one execution per call as a single row.  Otherwise (and
   for zero-depth bodies) every access goes to [sink.access] in program
   order, its address the reference's column plus its gather terms. *)
let compile_nest sink layout nest =
  let loops = Array.of_list nest.Nest.loops in
  let depth = Array.length loops in
  let var_level = Hashtbl.create 8 in
  Array.iteri (fun i l -> Hashtbl.replace var_level l.Loop.var i) loops;
  let refs = Array.of_list (List.concat_map (fun s -> s.Stmt.refs) nest.Nest.body) in
  let nrefs = Array.length refs in
  let writes = Array.map Ref_.is_write refs in
  let flops_per_iter =
    List.fold_left (fun acc s -> acc + s.Stmt.flops) 0 nest.Nest.body
  in
  let parts = Array.map (Layout.address_parts layout) refs in
  (* Gather term [g] is column [nrefs + g]; reference [r] owns the terms
     [first.(r)] to [first.(r + 1) - 1]. *)
  let terms = Array.of_list (List.concat_map snd (Array.to_list parts)) in
  let first = Array.make (nrefs + 1) 0 in
  Array.iteri (fun r (_, gs) -> first.(r + 1) <- first.(r) + List.length gs) parts;
  let scales = Array.map (fun (scale, _, _) -> scale) terms in
  let tables = Array.map (fun (_, table, _) -> table) terms in
  let ncols = nrefs + Array.length terms in
  let partials = Array.make_matrix (depth + 1) ncols 0 in
  let strides = Array.make_matrix depth ncols 0 in
  let column c e =
    List.iter
      (fun v ->
        match Hashtbl.find_opt var_level v with
        | Some level -> strides.(level).(c) <- Expr.coeff e v
        | None -> invalid_arg ("Interp: unbound loop variable " ^ v))
      (Expr.vars e);
    partials.(0).(c) <- Expr.const_part e
  in
  Array.iteri (fun r (affine, _) -> column r affine) parts;
  Array.iteri (fun g (_, _, index) -> column (nrefs + g) index) terms;
  let ivs = Array.make depth 0 in
  let env v =
    match Hashtbl.find_opt var_level v with
    | Some level -> ivs.(level)
    | None -> invalid_arg ("Interp: unbound variable " ^ v)
  in
  let flops = ref 0 in
  let rec outer ~stop ~leaf level =
    if level = stop then leaf ()
    else begin
      let cur = partials.(level) and next = partials.(level + 1) in
      let s = strides.(level) in
      Loop.iter env loops.(level) (fun iv ->
          ivs.(level) <- iv;
          for c = 0 to ncols - 1 do
            next.(c) <- cur.(c) + (s.(c) * iv)
          done;
          outer ~stop ~leaf (level + 1))
    end
  in
  let blocked = depth >= 1 && ncols = nrefs in
  let two_loop =
    blocked && depth >= 2
    && begin
         let inner = loops.(depth - 1) and v = loops.(depth - 2).Loop.var in
         List.for_all
           (fun e -> not (List.mem v (Expr.vars e)))
           ((inner.Loop.lo :: inner.Loop.hi :: Option.to_list inner.Loop.lo_max)
           @ Option.to_list inner.Loop.hi_min)
       end
  in
  let stop = if two_loop then depth - 2 else if blocked then depth - 1 else depth in
  let leaf =
    if blocked then begin
      let loop = loops.(depth - 1) and s = strides.(depth - 1) in
      let cur = partials.(stop) in
      let block_strides = Array.map (fun s -> s * loop.Loop.step) s in
      (* the row loop, or one row with no stride *)
      let row, so =
        if two_loop then (Some loops.(stop), strides.(stop))
        else (None, Array.make nrefs 0)
      in
      let outer_strides =
        match row with
        | Some l -> Array.map (fun s -> s * l.Loop.step) so
        | None -> so
      in
      let bases = Array.make nrefs 0 in
      fun () ->
        let outer_count = Option.fold ~none:1 ~some:(Loop.trip_count env) row in
        let count = if outer_count > 0 then Loop.trip_count env loop else 0 in
        if count > 0 then begin
          let lo = Loop.effective_lo env loop in
          let olo = Option.fold ~none:0 ~some:(Loop.effective_lo env) row in
          for r = 0 to nrefs - 1 do
            bases.(r) <- cur.(r) + (so.(r) * olo) + (s.(r) * lo)
          done;
          sink.block ~bases ~strides:block_strides ~writes ~count ~outer_strides
            ~outer_count;
          flops := !flops + (flops_per_iter * count * outer_count)
        end
    end
    else begin
      let cols = partials.(depth) in
      fun () ->
        for r = 0 to nrefs - 1 do
          let addr = ref cols.(r) in
          for g = first.(r) to first.(r + 1) - 1 do
            addr :=
              !addr + (scales.(g) * Subscript.lookup tables.(g) cols.(nrefs + g))
          done;
          sink.access ~write:writes.(r) !addr
        done;
        flops := !flops + flops_per_iter
    end
  in
  fun () ->
    flops := 0;
    outer ~stop ~leaf 0;
    !flops

(* Pushes the whole program (every time step, nests in order) into
   [sink]; returns the flops executed. *)
let walk sink layout program =
  let nests = List.map (compile_nest sink layout) program.Program.nests in
  let flops = ref 0 in
  for _step = 1 to program.Program.time_steps do
    List.iter (fun nest -> flops := !flops + nest ()) nests
  done;
  !flops

(* --- sinks ------------------------------------------------------------- *)

(* A sink that takes every segment access by access, in order. *)
let per_access access =
  {
    access;
    block =
      (fun ~bases ~strides ~writes ~count ~outer_strides ~outer_count ->
        for o = 0 to outer_count - 1 do
          for j = 0 to count - 1 do
            for r = 0 to Array.length bases - 1 do
              access ~write:writes.(r)
                (bases.(r) + (o * outer_strides.(r)) + (j * strides.(r)))
            done
          done
        done);
  }

let hierarchy_sink hierarchy =
  per_access (fun ~write addr -> ignore (Cs.Hierarchy.access hierarchy ~write addr))

let fast_sink sim =
  {
    access = (fun ~write addr -> ignore (Cs.Fast_sim.access sim ~write addr));
    block = Cs.Fast_sim.block sim;
  }

(* --- pricing and observability ----------------------------------------- *)

(* The deterministic counters a run adds to the active [Obs] buffer:
   per-level [sim.L<i>.*], [sim.refs], then the backend's own.  Recorded as deltas against a pre-run snapshot, so a
   simulator that already holds counts never double-counts; skipped
   entirely when no buffer is installed, and per-run rather than
   per-access, so the cost is independent of trace length. *)
let counters stats extra =
  List.concat
    (List.mapi
       (fun i s ->
         let l = Printf.sprintf "sim.L%d." (i + 1) in
         [
           (l ^ "accesses", s.Cs.Stats.accesses);
           (l ^ "hits", s.Cs.Stats.hits);
           (l ^ "misses", s.Cs.Stats.misses);
           (l ^ "writes", s.Cs.Stats.writes);
           (l ^ "writebacks", s.Cs.Stats.writebacks);
         ])
       stats)
  @ (match stats with s :: _ -> [ ("sim.refs", s.Cs.Stats.accesses) ] | [] -> [])
  @ extra ()

(* The one run-and-price path: [stats ()] reads the simulator's live
   per-level counters, L1 first; [extra ()] its own work counters. *)
let simulate ~backend ~stats ~extra sink machine layout program =
  let walk () = walk sink layout program in
  let flops =
    if not (Obs.enabled ()) then walk ()
    else begin
      let before = counters (stats ()) extra in
      let flops =
        Obs.with_span ~cat:"sim"
          ~args:[ ("backend", `Str backend); ("program", `Str program.Program.name) ]
          "sim:run" walk
      in
      List.iter2
        (fun (name, b) (_, a) -> if a <> b then Obs.count ~n:(a - b) name)
        before
        (counters (stats ()) extra);
      flops
    end
  in
  let stats = stats () in
  let total_refs = (List.hd stats).Cs.Stats.accesses in
  let cost = machine.Cs.Machine.cost in
  {
    total_refs;
    misses = List.map (fun s -> s.Cs.Stats.misses) stats;
    miss_rates = List.map (Cs.Stats.miss_rate_vs ~total_refs) stats;
    memory_accesses = (List.nth stats (List.length stats - 1)).Cs.Stats.misses;
    writebacks = List.fold_left (fun acc s -> acc + s.Cs.Stats.writebacks) 0 stats;
    flops;
    cycles = Cs.Cost_model.cycles_of_stats cost stats;
    seconds = Cs.Cost_model.seconds_of_stats cost stats;
    mflops = Cs.Cost_model.mflops_of_stats cost ~flops stats;
    levels = List.map (Cs.Stats.add (Cs.Stats.zero ())) stats;
  }

let run_sim sim machine layout program =
  let extra () =
    let m = Cs.Fast_sim.metrics sim in
    [
      ("sim.fast.bulk_segments", m.Cs.Fast_sim.bulk_segments);
      ("sim.fast.bulk_iterations", m.Cs.Fast_sim.bulk_iterations);
      ("sim.fast.seq_iterations", m.Cs.Fast_sim.seq_iterations);
    ]
  in
  simulate ~backend:"fast"
    ~stats:(fun () -> Cs.Fast_sim.level_stats sim)
    ~extra (fast_sink sim) machine layout program

type backend = [ `Reference | `Fast ]

let backend_name = function `Reference -> "reference" | `Fast -> "fast"

(* The one place a simulator is chosen and built.  Fast_sim simulates
   only direct-mapped levels without next-line prefetch; anything else
   runs on the reference cascade (the two agree everywhere else, so this
   costs time, never accuracy), counted as [sim.fast.fallbacks] when
   [`Fast] was asked for. *)
let run ?(backend = `Fast) ?write_allocate ?(prefetch_levels = []) machine
    layout program =
  let geoms = machine.Cs.Machine.geometries in
  if
    backend = `Fast && prefetch_levels = []
    && List.for_all (fun g -> g.Cs.Level.assoc = 1) geoms
  then run_sim (Cs.Fast_sim.create ?write_allocate geoms) machine layout program
  else begin
    if backend = `Fast then Obs.count "sim.fast.fallbacks";
    let hierarchy = Cs.Hierarchy.create ?write_allocate ~prefetch_levels geoms in
    simulate ~backend:"reference"
      ~stats:(fun () -> List.map Cs.Level.stats (Cs.Hierarchy.levels hierarchy))
      ~extra:(fun () -> [])
      (hierarchy_sink hierarchy) machine layout program
  end

(* --- trace sink -------------------------------------------------------- *)

let trace layout program =
  let buf = ref (Array.make 4096 0) and len = ref 0 in
  let push addr =
    if !len = Array.length !buf then begin
      let bigger = Array.make (2 * !len) 0 in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    !buf.(!len) <- addr;
    incr len
  in
  let sink = per_access (fun ~write:_ addr -> push addr) in
  ignore (walk sink layout program);
  Array.sub !buf 0 !len
