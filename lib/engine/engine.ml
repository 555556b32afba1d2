module Cs = Mlc_cachesim
module Obs = Mlc_obs.Obs

(* The shared per-job body: resolve against the cache, execute a miss,
   store it back.  A job is a pure function of its spec, so it runs once:
   a failure comes back as data, never as an exception escaping a worker
   domain. *)
let one ?cache ?progress ~worker spec =
  let canon = Job.canonical spec in
  let body () =
    Fault.inject canon;
    let cached = Option.bind cache (fun c -> Cache.find c spec) in
    match cached with
    | Some r -> (r, true)
    | None ->
        let r = Job.execute spec in
        Option.iter
          (fun c ->
            Cache.store c spec r;
            if Fault.wants_corrupt canon then Cache.corrupt c spec)
          cache;
        (r, false)
  in
  match body () with
  | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      Obs.count "engine.failures";
      Error { Fault.exn; backtrace; attempts = 1 }
  | result, cache_hit ->
      Obs.count "engine.jobs";
      Obs.count (if cache_hit then "engine.cache.hits" else "engine.cache.misses");
      Option.iter
        (fun p ->
          Progress.record p ~worker ~cache_hit
            ~refs:(if cache_hit then 0 else result.Job.interp.Mlc_ir.Interp.total_refs))
        progress;
      Ok result

let run_collect ?cache ?progress ?obs ?cancel ?(stop_on_failure = false)
    ?jobs specs =
  Option.iter (fun p -> Progress.expect p (Array.length specs)) progress;
  let one = one ?cache ?progress in
  match obs with
  | None ->
      let stop = if stop_on_failure then Some Result.is_error else None in
      Pool.map_opt ?jobs ?cancel ?stop one specs
  | Some dst ->
      (* Each job records into a private per-job buffer tagged with its
         worker, so the hot path stays lock-free; the buffers are merged
         into [dst] in spec (submission) order, which makes every counter
         total and the event sequence independent of the worker count.
         Failures are caught inside the job span, so every buffer —
         including a failed job's — holds balanced spans, and completed
         jobs keep their telemetry even when a sibling cell fails. *)
      let instrumented ~worker spec =
        let buf = Obs.Buf.create ~tid:worker () in
        let result =
          Obs.with_buf buf (fun () ->
              Obs.with_span ~cat:"job"
                ~args:[ ("worker", `Int worker) ]
                (Job.describe spec)
                (fun () -> one ~worker spec))
        in
        (result, buf)
      in
      let stop =
        if stop_on_failure then Some (fun (r, _) -> Result.is_error r) else None
      in
      let pairs = Pool.map_opt ?jobs ?cancel ?stop instrumented specs in
      Array.iter
        (function Some (_, buf) -> Obs.Buf.merge ~into:dst buf | None -> ())
        pairs;
      Array.map (Option.map fst) pairs

let run ?cache ?progress ?obs ?jobs specs =
  let slots =
    run_collect ?cache ?progress ?obs ~stop_on_failure:true ?jobs specs
  in
  (* Fail fast, but only after the merge above: completed jobs' buffers
     are already in [obs], so a failing cell no longer truncates the
     trace of everything that did finish. *)
  let first_error =
    Array.fold_left
      (fun acc slot ->
        match (acc, slot) with
        | None, Some (Error f) -> Some f
        | acc, _ -> acc)
      None slots
  in
  match first_error with
  | Some f -> Printexc.raise_with_backtrace f.Fault.exn f.Fault.backtrace
  | None ->
      Array.map
        (function
          | Some (Ok r) -> r
          (* No error and no cancel flag was passed: every slot ran. *)
          | Some (Error _) | None -> assert false)
        slots

let merged_stats results =
  Array.fold_left
    (fun acc (r : Job.result) ->
      match acc with
      | [] -> List.map (fun s -> Cs.Stats.add (Cs.Stats.zero ()) s) r.Job.level_stats
      | acc ->
          if List.length acc <> List.length r.Job.level_stats then
            invalid_arg "Engine.merged_stats: results with different level counts"
          else List.map2 Cs.Stats.add acc r.Job.level_stats)
    [] results
