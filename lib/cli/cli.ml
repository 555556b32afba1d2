open Cmdliner
module E = Mlc_engine
module Obs = Mlc_obs.Obs

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1 "a positive integer"

let machine_spec =
  let doc = "Cache machine: ultrasparc (16K/512K) or alpha (8K/128K/2M)." in
  let names = List.map (fun (name, _) -> (name, E.Job.machine name)) E.Job.machines in
  Arg.(value & opt (enum names) (E.Job.machine "ultrasparc")
       & info [ "machine" ] ~docv:"M" ~doc)

let machine = Term.(const E.Job.build_machine $ machine_spec)

let strategy =
  let doc = "Layout strategy: orig, pad, multilvlpad, grouppad, l2maxpad." in
  Arg.(value & opt (enum E.Job.strategies) Locality.Pipeline.Pad_l1
       & info [ "strategy"; "s" ] ~docv:"S" ~doc)

let jobs names =
  let doc = "Worker domains (default: the machine's core count)." in
  Term.(const (max 1)
        $ Arg.(value & opt int (E.Pool.default_jobs ()) & info names ~docv:"N" ~doc))

let cache_dir =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Cache directory (default _mlc_cache, or MLC_CACHE_DIR).")

let cache =
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the on-disk result cache.")
  in
  let open_ no_cache dir = if no_cache then None else Some (E.Cache.open_ ?dir ()) in
  Term.(const open_ $ no_cache $ cache_dir)

let backend =
  let backends = List.map (fun b -> (Mlc_ir.Interp.backend_name b, b)) [ `Fast; `Reference ] in
  Arg.(value & opt (enum backends) `Fast
       & info [ "backend" ] ~docv:"B"
           ~doc:"Simulator backend: $(b,fast) (default) or $(b,reference). \
                 Both produce identical results; fast bulk-accounts steady \
                 runs of L1 hits.")

let retries =
  Arg.(value & opt (int_at_least 0 "a non-negative integer") 0
       & info [ "retries" ] ~docv:"N"
           ~doc:"Retry a failing job up to N times with exponential backoff \
                 before recording it as failed.")

type obs = { trace : string option; metrics : bool }

let obs =
  let trace =
    let doc =
      "Write a Chrome trace_event JSON file of the run (spans, decision \
       events, counters); load it in perfetto or chrome://tracing, or \
       validate it with $(b,mlc trace-check)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print the observability counters after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  Term.(const (fun trace metrics -> { trace; metrics }) $ trace $ metrics)

(* The metrics block goes to stdout (it is part of the command's result);
   everything incidental stays on stderr. *)
let with_obs ~span { trace; metrics } body =
  if trace = None && not metrics then body None
  else begin
    let buf = Obs.Buf.create ~tid:0 () in
    let result =
      Obs.with_buf buf (fun () ->
          Obs.with_span ~cat:"cli" span (fun () -> body (Some buf)))
    in
    Option.iter
      (fun path ->
        let oc = open_out path in
        Obs.Sink.write (Obs.Sink.chrome oc) buf;
        close_out oc;
        Printf.eprintf "trace: %d events -> %s\n%!" (Obs.Buf.n_events buf) path)
      trace;
    if metrics then begin
      print_string "metrics:\n";
      List.iter
        (fun (name, v) -> Printf.printf "  %-36s %d\n" name v)
        (Obs.Buf.counters buf)
    end;
    result
  end

let eval ?argv cmd =
  (* keep each usage error on one line *)
  Format.pp_set_margin Format.err_formatter 1000;
  let code =
    try Cmd.eval ?argv ~err:Format.err_formatter ~catch:false cmd with
    | E.Job.Spec_error msg | Locality.Fusion.Illegal msg ->
        Printf.eprintf "%s: %s\n%!" (Cmd.name cmd) msg;
        Cmd.Exit.some_error
    | exn ->
        (* what cmdliner's own handler reports for a bug *)
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "%s: internal error, uncaught exception:\n%s\n%!"
          (Cmd.name cmd) (Printexc.to_string exn);
        Printexc.print_raw_backtrace stderr bt;
        Cmd.Exit.internal_error
  in
  exit code
