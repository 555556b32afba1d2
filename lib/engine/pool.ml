let default_jobs () = Domain.recommended_domain_count ()

(* One shared Atomic index feeds the workers; each worker owns the result
   slots it claimed, so no two domains ever write the same cell.  The
   caller observes results only after every domain is joined, which
   publishes the writes.

   Workers stop claiming indices when the [cancel] flag is set, when
   [stop] returned true on any produced result, or when any call raised;
   unclaimed slots come back [None].  The first exception (if any) is
   re-raised after every domain is joined — callers that want failures
   as data make [f] total and use [stop] instead. *)
let map_opt ?(jobs = default_jobs ()) ?cancel ?stop f items =
  let n = Array.length items in
  let jobs = max 1 (min jobs n) in
  let cancelled () = match cancel with Some c -> Atomic.get c | None -> false in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let stopped = Atomic.make false in
    let failed = Atomic.make None in
    let worker w =
      let rec loop () =
        if Atomic.get stopped || Atomic.get failed <> None || cancelled () then ()
        else
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then ()
          else begin
            (match f ~worker:w items.(i) with
            | y ->
                results.(i) <- Some y;
                (match stop with
                | Some p when p y -> Atomic.set stopped true
                | _ -> ())
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set failed None (Some (e, bt))));
            loop ()
          end
      in
      loop ()
    in
    if jobs = 1 then worker 0
    else begin
      let spawned =
        Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
      in
      (* The calling domain is worker 0: even with [jobs] worth of
         failures to spawn domains, the pool degrades to sequential
         execution rather than deadlocking. *)
      let self_exn =
        match worker 0 with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Array.iter Domain.join spawned;
      match self_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end;
    (match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    results
  end
