type worker = {
  mutable jobs_done : int;
  mutable cache_hits : int;
  mutable refs_streamed : int;
}

type t = {
  workers : worker array;
  mutable total : int;
  started : float;
  live : bool;
  render_mutex : Mutex.t;
  mutable last_render : float;
  mutable line_shown : bool;
}

let create ?live ~jobs () =
  let live =
    match live with
    | Some b -> b
    | None -> (
        (* All telemetry goes to stderr; the live line additionally
           requires a tty (or an explicit MLC_PROGRESS override), so
           redirected runs never see spinner control characters. *)
        match Sys.getenv_opt "MLC_PROGRESS" with
        | Some ("0" | "no" | "false" | "off") -> false
        | Some _ -> true
        | None -> Unix.isatty Unix.stderr)
  in
  {
    workers =
      Array.init (max 1 jobs) (fun _ ->
          { jobs_done = 0; cache_hits = 0; refs_streamed = 0 });
    total = 0;
    started = Unix.gettimeofday ();
    live;
    render_mutex = Mutex.create ();
    last_render = 0.0;
    line_shown = false;
  }

let expect t n = t.total <- t.total + n

let sum t f = Array.fold_left (fun acc w -> acc + f w) 0 t.workers

let jobs_done t = sum t (fun w -> w.jobs_done)

let cache_hits t = sum t (fun w -> w.cache_hits)

let refs_streamed t = sum t (fun w -> w.refs_streamed)

let elapsed t = Unix.gettimeofday () -. t.started

let jobs_per_sec t =
  let dt = elapsed t in
  if dt <= 0.0 then 0.0 else float_of_int (jobs_done t) /. dt

let hit_rate t =
  let d = jobs_done t in
  if d = 0 then 0.0 else float_of_int (cache_hits t) /. float_of_int d

let render t =
  Printf.eprintf "\r  engine: %d/%d jobs  %d cache hits  %.2e refs  %.1fs \
                  (%d workers)%!"
    (jobs_done t) t.total (cache_hits t)
    (float_of_int (refs_streamed t))
    (elapsed t) (Array.length t.workers);
  t.line_shown <- true

let maybe_render t =
  if t.live then begin
    Mutex.lock t.render_mutex;
    let now = Unix.gettimeofday () in
    if now -. t.last_render >= 0.1 then begin
      t.last_render <- now;
      render t
    end;
    Mutex.unlock t.render_mutex
  end

(* Each worker slot is written by exactly one domain; cross-domain reads
   (the live line, the final totals) are monotone counters whose final
   values are published by Domain.join before anyone sums them. *)
let record t ~worker ~cache_hit ~refs =
  let w = t.workers.(worker) in
  w.jobs_done <- w.jobs_done + 1;
  if cache_hit then w.cache_hits <- w.cache_hits + 1;
  w.refs_streamed <- w.refs_streamed + refs;
  maybe_render t

let finish t =
  if t.live && t.line_shown then begin
    render t;
    prerr_newline ()
  end

let summary t =
  Printf.sprintf "%d jobs, %d cache hits (%.0f%%), %d refs streamed, %.1fs, %.1f jobs/s"
    (jobs_done t) (cache_hits t)
    (100.0 *. hit_rate t)
    (refs_streamed t) (elapsed t) (jobs_per_sec t)

let json_fields t =
  let module J = Mlc_obs.Json in
  [
    ("jobs_done", J.Int (jobs_done t));
    ("cache_hits", J.Int (cache_hits t));
    ("cache_hit_rate", J.fixed 4 (hit_rate t));
    ("refs_streamed", J.Int (refs_streamed t));
    ("jobs_per_sec", J.fixed 3 (jobs_per_sec t));
    ("wall_s", J.fixed 3 (elapsed t));
    ( "workers",
      J.List
        (Array.to_list
           (Array.map
              (fun w ->
                J.Obj
                  [
                    ("jobs_done", J.Int w.jobs_done);
                    ("cache_hits", J.Int w.cache_hits);
                    ("refs_streamed", J.Int w.refs_streamed);
                  ])
              t.workers)) );
  ]
