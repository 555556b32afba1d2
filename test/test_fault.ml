(* Fault injection and resilience: per-cell error isolation under
   `Collect`, corrupt-entry quarantine and recompute, engine-level resume
   from the cache after a partial failure, cache verify/gc maintenance,
   the CLI resume path (crash -> collect -> plain re-run -> byte-identical
   output), and the property that with no faults installed `Collect`,
   `Fail_fast` and plain Engine.run agree for any worker count. *)

module Cs = Mlc_cachesim
module E = Mlc_engine
module L = Locality
module Obs = Mlc_obs.Obs

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Rules are process-global state; every test restores the clean slate
   even when its body fails. *)
let with_rules rules f =
  E.Fault.set_rules rules;
  Fun.protect ~finally:(fun () -> E.Fault.set_rules []) f

let counter buf name =
  match List.assoc_opt name (Obs.Buf.counters buf) with Some v -> v | None -> 0

(* Two kernels, two sizes, two strategies: canonical specs contain
   "jacobi512" / "expl512" and "n=64" / "n=72" to target rules at. *)
let sweep_specs () =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun n ->
          List.map
            (fun s ->
              E.Job.simulate ~layout:(E.Job.Strategy s)
                (E.Job.Registry { name; n = Some n }))
            [ L.Pipeline.Original; L.Pipeline.Grouppad_l1 ])
        [ 64; 72 ])
    [ "JACOBI512"; "EXPL512" ]
  |> Array.of_list

let spec1 ?(n = 64) () =
  E.Job.simulate ~layout:(E.Job.Strategy L.Pipeline.Grouppad_l1)
    (E.Job.Registry { name = "JACOBI512"; n = Some n })

(* --- collect isolates failing cells --------------------------------------- *)

let test_collect_isolation () =
  with_rules [ { E.Fault.pattern = "expl512"; kind = E.Fault.Crash } ]
  @@ fun () ->
  let specs = sweep_specs () in
  let buf = Obs.Buf.create ~tid:0 () in
  let slots = E.Engine.run_collect ~obs:buf ~jobs:4 specs in
  Alcotest.(check int) "each failed cell counted once" 4
    (counter buf "engine.failures");
  Array.iteri
    (fun i slot ->
      let crashes = contains (E.Job.canonical specs.(i)) "expl512" in
      match slot with
      | Some (Error f) ->
          Alcotest.(check bool) "only crash cells fail" true crashes;
          Alcotest.(check bool)
            "failure carries the injected exception" true
            (match f.E.Fault.exn with E.Fault.Injected _ -> true | _ -> false)
      | Some (Ok _) ->
          Alcotest.(check bool) "healthy cells complete" false crashes
      | None -> Alcotest.fail "collect must run every cell")
    slots;
  (* The same sweep through fail-fast Engine.run raises the injection. *)
  let raised =
    match E.Engine.run ~jobs:4 specs with
    | _ -> false
    | exception E.Fault.Injected _ -> true
  in
  Alcotest.(check bool) "Engine.run re-raises the injected crash" true raised

(* --- corrupt entry: quarantined, recomputed -------------------------------- *)

let test_corrupt_quarantine () =
  let dir = tmpdir "mlc_fault_corrupt" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let spec = spec1 () in
      let first =
        with_rules [ { E.Fault.pattern = "n=64"; kind = E.Fault.Corrupt } ]
        @@ fun () ->
        let c = E.Cache.open_ ~dir ~version:"v1" () in
        E.Engine.run ~cache:c ~jobs:1 [| spec |]
      in
      (* The stored entry was truncated right after the store; the next
         run must quarantine it and recompute, not crash or mis-read. *)
      let c = E.Cache.open_ ~dir ~version:"v1" () in
      let buf = Obs.Buf.create ~tid:0 () in
      let second = E.Engine.run ~cache:c ~obs:buf ~jobs:1 [| spec |] in
      Alcotest.(check int) "obs counted the quarantine" 1
        (counter buf "engine.cache.quarantined");
      Alcotest.(check bool) "quarantine dir holds the damaged entry" true
        (Sys.file_exists (E.Cache.quarantine_dir c)
        && Array.length (Sys.readdir (E.Cache.quarantine_dir c)) = 1);
      Alcotest.(check string) "recomputed result matches" first.(0).E.Job.key
        second.(0).E.Job.key;
      (* The recomputed store is intact: a third open is a clean hit. *)
      let c3 = E.Cache.open_ ~dir ~version:"v1" () in
      Alcotest.(check bool) "re-stored entry readable" true
        (E.Cache.find c3 spec <> None))

(* --- resume recomputes only the missing cells ------------------------------ *)

let test_resume_only_missing () =
  let dir = tmpdir "mlc_fault_resume" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let specs = sweep_specs () in
      let failed =
        with_rules [ { E.Fault.pattern = "expl512"; kind = E.Fault.Crash } ]
        @@ fun () ->
        let c = E.Cache.open_ ~dir ~version:"v1" () in
        let slots = E.Engine.run_collect ~cache:c ~jobs:2 specs in
        Array.fold_left
          (fun n -> function Some (Error _) -> n + 1 | _ -> n)
          0 slots
      in
      Alcotest.(check int) "half the sweep failed" 4 failed;
      (* Faults cleared: a plain re-run replays the completed half from
         the cache and computes only what is missing. *)
      let c = E.Cache.open_ ~dir ~version:"v1" () in
      let progress = E.Progress.create ~jobs:2 () in
      let results = E.Engine.run ~cache:c ~progress ~jobs:2 specs in
      Alcotest.(check int) "every cell resolved" 8 (Array.length results);
      Alcotest.(check int) "completed cells replay from cache" 4
        (E.Progress.cache_hits progress))

(* --- cache maintenance: verify and gc -------------------------------------- *)

let test_cache_verify_gc () =
  let dir = tmpdir "mlc_fault_verify" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let c = E.Cache.open_ ~dir ~version:"v1" () in
      let specs = [| spec1 ~n:64 (); spec1 ~n:72 (); spec1 ~n:80 () |] in
      Array.iter (fun s -> E.Cache.store c s (E.Job.execute s)) specs;
      E.Cache.corrupt c specs.(1);
      let r = E.Cache.verify c in
      Alcotest.(check int) "checked all" 3 r.E.Cache.checked;
      Alcotest.(check int) "two intact" 2 r.E.Cache.intact;
      Alcotest.(check int) "one damaged" 1 r.E.Cache.damaged;
      let s = E.Cache.disk_stats c in
      Alcotest.(check int) "damaged entry quarantined" 1 s.E.Cache.quarantined_files;
      Alcotest.(check int) "intact entries remain" 2 s.E.Cache.entries;
      let g = E.Cache.gc c in
      Alcotest.(check int) "gc removed the quarantined file" 1 g.E.Cache.removed_files;
      Alcotest.(check int) "entries survive plain gc" 2
        (E.Cache.disk_stats c).E.Cache.entries;
      let _ = E.Cache.gc ~all:true c in
      Alcotest.(check int) "gc --all empties the cache" 0
        (E.Cache.disk_stats c).E.Cache.entries)

(* --- CLI: crash under collect, then a re-run is byte-identical -------------- *)

let mlc_exe =
  List.find_opt Sys.file_exists
    [ "../bin/mlc.exe"; "_build/default/bin/mlc.exe" ]

let run_cmd cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (Buffer.contents buf, status)

let test_cli_collect_resume () =
  let exe =
    match mlc_exe with
    | Some exe -> exe
    | None -> Alcotest.fail "mlc.exe not built (missing test dependency)"
  in
  let d_crash = tmpdir "mlc_fault_cli" and d_full = tmpdir "mlc_fault_cli_full" in
  Fun.protect
    ~finally:(fun () ->
      Tmp_tree.rm_rf d_crash;
      Tmp_tree.rm_rf d_full)
    (fun () ->
      let base =
        Printf.sprintf
          "%s sweep JACOBI512 --lo 64 --hi 80 --step 8 --strategies grouppad \
           --jobs 2"
          exe
      in
      let crashed, st =
        run_cmd
          (Printf.sprintf "MLC_FAULTS='crash:n=80' %s --error-policy collect --cache-dir %s"
             base d_crash)
      in
      Alcotest.(check bool) "collect sweep with a crash exits non-zero" true
        (st = Unix.WEXITED 1);
      Alcotest.(check bool) "failed cell marked in the table" true
        (contains crashed "FAILED");
      let resumed, st =
        run_cmd (Printf.sprintf "%s --cache-dir %s" base d_crash)
      in
      Alcotest.(check bool) "resume completes cleanly" true
        (st = Unix.WEXITED 0);
      let full, st =
        run_cmd (Printf.sprintf "%s --cache-dir %s" base d_full)
      in
      Alcotest.(check bool) "uninterrupted run succeeds" true
        (st = Unix.WEXITED 0);
      Alcotest.(check string) "resumed output is byte-identical" full resumed)

(* --- property: no faults => collect = fail-fast = run, any jobs ------------- *)

let small_specs () =
  List.map
    (fun (n, s) ->
      E.Job.simulate ~layout:(E.Job.Strategy s)
        (E.Job.Registry { name = "JACOBI512"; n = Some n }))
    [
      (64, L.Pipeline.Original);
      (64, L.Pipeline.Grouppad_l1);
      (72, L.Pipeline.Original);
      (72, L.Pipeline.Grouppad_l1);
    ]
  |> Array.of_list

let slot_key = function
  | Some (Ok (r : E.Job.result)) ->
      Some (r.E.Job.key, r.E.Job.interp.Mlc_ir.Interp.misses)
  | Some (Error _) | None -> None

let prop_policies_agree =
  QCheck.Test.make ~name:"no faults: collect = fail-fast = run across jobs"
    ~count:4
    QCheck.(int_range 1 4)
    (fun jobs ->
      let specs = small_specs () in
      let plain = E.Engine.run ~jobs specs in
      let collect = E.Engine.run_collect ~jobs specs in
      let fail_fast = E.Engine.run_collect ~stop_on_failure:true ~jobs specs in
      let expect =
        Array.map
          (fun (r : E.Job.result) ->
            Some (r.E.Job.key, r.E.Job.interp.Mlc_ir.Interp.misses))
          plain
      in
      expect = Array.map slot_key collect
      && expect = Array.map slot_key fail_fast)

(* --- parse ------------------------------------------------------------------ *)

let test_parse () =
  let rules = E.Fault.parse "crash:n=80; slow:expl:250;corrupt:n=64" in
  Alcotest.(check int) "three rules" 3 (List.length rules);
  (match rules with
  | [ a; c; d ] ->
      Alcotest.(check bool) "crash" true (a.E.Fault.kind = E.Fault.Crash);
      Alcotest.(check bool) "slow is seconds" true
        (c.E.Fault.kind = E.Fault.Slow 0.25);
      Alcotest.(check bool) "corrupt" true (d.E.Fault.kind = E.Fault.Corrupt)
  | _ -> Alcotest.fail "rule shapes");
  let malformed =
    match E.Fault.parse "slow:jacobi" with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "malformed rule rejected" true malformed

let () =
  Alcotest.run "fault"
    [
      ( "inject",
        [
          Alcotest.test_case "rule parsing" `Quick test_parse;
          Alcotest.test_case "collect isolates crashing cells" `Slow
            test_collect_isolation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "corrupt entry quarantined and recomputed" `Quick
            test_corrupt_quarantine;
          Alcotest.test_case "verify and gc" `Quick test_cache_verify_gc;
        ] );
      ( "resume",
        [
          Alcotest.test_case "re-run computes only missing cells" `Slow
            test_resume_only_missing;
          Alcotest.test_case "CLI collect crash then re-run byte-identical"
            `Slow test_cli_collect_resume;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_policies_agree ] );
    ]
