(* The parallel experiment engine: pool semantics (deterministic merge,
   failure propagation), cache round-trips and key invalidation,
   parallel-vs-sequential determinism on a real sweep, and the algebraic
   law (associative + commutative merge) the engine's result merging
   relies on. *)

module Cs = Mlc_cachesim
module E = Mlc_engine
module L = Locality

let tmpdir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

(* A small but real sweep: two kernels, two sizes, two strategies. *)
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

let check_results_equal msg (a : E.Job.result array) (b : E.Job.result array) =
  Alcotest.(check int) (msg ^ ": count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (ra : E.Job.result) ->
      let rb = b.(i) in
      Alcotest.(check string) (msg ^ ": key") ra.E.Job.key rb.E.Job.key;
      Alcotest.(check int)
        (msg ^ ": refs")
        ra.E.Job.interp.Mlc_ir.Interp.total_refs
        rb.E.Job.interp.Mlc_ir.Interp.total_refs;
      Alcotest.(check (list int))
        (msg ^ ": misses")
        ra.E.Job.interp.Mlc_ir.Interp.misses
        rb.E.Job.interp.Mlc_ir.Interp.misses;
      Alcotest.(check (float 0.0))
        (msg ^ ": cycles")
        ra.E.Job.interp.Mlc_ir.Interp.cycles
        rb.E.Job.interp.Mlc_ir.Interp.cycles;
      List.iter2
        (fun sa sb ->
          Alcotest.(check bool) (msg ^ ": level stats") true (Cs.Stats.equal sa sb))
        ra.E.Job.level_stats rb.E.Job.level_stats)
    a

(* --- pool ----------------------------------------------------------------- *)

let test_pool_order () =
  let items = Array.init 100 (fun i -> i) in
  let out = E.Pool.map_opt ~jobs:4 (fun ~worker:_ x -> x * x) items in
  Array.iteri
    (fun i y -> Alcotest.(check (option int)) "square in order" (Some (i * i)) y)
    out;
  (* jobs beyond the item count are clamped, not spawned *)
  let out = E.Pool.map_opt ~jobs:64 (fun ~worker:_ x -> x + 1) [| 1; 2 |] in
  Alcotest.(check (array (option int))) "clamped" [| Some 2; Some 3 |] out

exception Boom

let test_pool_failure () =
  (* A failing element must fail the whole run (not hang, not return),
     with the original exception. *)
  let items = Array.init 50 (fun i -> i) in
  let raised =
    match
      E.Pool.map_opt ~jobs:4
        (fun ~worker:_ x -> if x = 37 then raise Boom else x)
        items
    with
    | _ -> false
    | exception Boom -> true
  in
  Alcotest.(check bool) "Boom propagated" true raised

let test_pool_cancel () =
  (* Cancellation is checked before each claim: setting the flag while
     item 2 runs lets item 2 finish and leaves every later slot unclaimed. *)
  let cancel = Atomic.make false in
  let out =
    E.Pool.map_opt ~jobs:1 ~cancel
      (fun ~worker:_ x ->
        if x = 2 then Atomic.set cancel true;
        x * 10)
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check (array (option int)))
    "claimed slots in order, the rest None"
    [| Some 0; Some 10; Some 20; None; None; None |]
    out

let test_engine_failure () =
  (* Same through Engine.run, with a spec that fails to resolve. *)
  let specs =
    Array.append (sweep_specs ())
      [|
        E.Job.simulate ~layout:E.Job.Initial
          (E.Job.Registry { name = "NO_SUCH_KERNEL"; n = None });
      |]
  in
  let raised =
    match E.Engine.run ~jobs:4 specs with
    | _ -> false
    | exception E.Job.Spec_error _ -> true
  in
  Alcotest.(check bool) "Spec_error propagated" true raised

(* --- determinism ---------------------------------------------------------- *)

let test_parallel_deterministic () =
  let sequential = E.Engine.run ~jobs:1 (sweep_specs ()) in
  let parallel = E.Engine.run ~jobs:4 (sweep_specs ()) in
  check_results_equal "jobs=4 vs jobs=1" sequential parallel

(* --- cache ---------------------------------------------------------------- *)

let test_cache_roundtrip () =
  let dir = tmpdir "mlc_cache_rt" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let specs = sweep_specs () in
      let cold_cache = E.Cache.open_ ~dir ~version:"v1" () in
      let cold_progress = E.Progress.create ~jobs:2 () in
      let cold = E.Engine.run ~cache:cold_cache ~progress:cold_progress ~jobs:2 specs in
      Alcotest.(check int) "cold run has no hits" 0
        (E.Progress.cache_hits cold_progress);
      let warm_cache = E.Cache.open_ ~dir ~version:"v1" () in
      let warm_progress = E.Progress.create ~jobs:2 () in
      let warm = E.Engine.run ~cache:warm_cache ~progress:warm_progress ~jobs:2 specs in
      Alcotest.(check int) "warm run is all hits" (Array.length specs)
        (E.Progress.cache_hits warm_progress);
      Alcotest.(check int) "warm run streams no refs" 0
        (E.Progress.refs_streamed warm_progress);
      check_results_equal "warm vs cold" cold warm)

let test_cache_stale_key () =
  let dir = tmpdir "mlc_cache_stale" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let spec =
        E.Job.simulate ~layout:E.Job.Initial
          (E.Job.Registry { name = "JACOBI512"; n = Some 64 })
      in
      let v1 = E.Cache.open_ ~dir ~version:"v1" () in
      let result = E.Job.execute spec in
      E.Cache.store v1 spec result;
      Alcotest.(check bool) "hit under the writing version" true
        (E.Cache.find v1 spec <> None);
      (* A model change (new version) re-keys everything: the old entry
         is simply never addressed again. *)
      let v2 = E.Cache.open_ ~dir ~version:"v2" () in
      Alcotest.(check bool) "stale version misses" true
        (E.Cache.find v2 spec = None);
      (* A corrupt entry reads as a miss, not as a wrong result. *)
      let path =
        Filename.concat
          (Filename.concat dir (String.sub (E.Cache.key v1 spec) 0 2))
          (E.Cache.key v1 spec ^ ".bin")
      in
      let oc = open_out_bin path in
      output_string oc "garbage";
      close_out oc;
      Alcotest.(check bool) "corrupt entry misses" true
        (E.Cache.find v1 spec = None))

let test_cache_key_scheme () =
  let dir = tmpdir "mlc_cache_key" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let c = E.Cache.open_ ~dir ~version:"v1" () in
      let spec n strategy =
        E.Job.simulate ~layout:(E.Job.Strategy strategy)
          (E.Job.Registry { name = "EXPL512"; n = Some n })
      in
      let k = E.Cache.key c (spec 64 L.Pipeline.Original) in
      Alcotest.(check string) "key is stable" k
        (E.Cache.key c (spec 64 L.Pipeline.Original));
      Alcotest.(check bool) "size changes the key" true
        (k <> E.Cache.key c (spec 72 L.Pipeline.Original));
      Alcotest.(check bool) "strategy changes the key" true
        (k <> E.Cache.key c (spec 64 L.Pipeline.Grouppad_l1)))

(* Without [~version], keys are salted with this executable's digest, so
   two builds (two uncommitted edits of one commit, say) never share an
   entry. *)
let test_cache_default_version () =
  let dir = tmpdir "mlc_cache_version" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let digest = "exe-" ^ Digest.to_hex (Digest.file Sys.executable_name) in
      Alcotest.(check string) "default version" digest (E.Cache.default_version ());
      Alcotest.(check string) "open_ defaults to it" digest
        (E.Cache.version (E.Cache.open_ ~dir ()));
      Alcotest.(check string) "~version overrides it" "v1"
        (E.Cache.version (E.Cache.open_ ~dir ~version:"v1" ())))

(* --- Stats.add ------------------------------------------------------------ *)

let arb_stats =
  let open QCheck in
  map
    (fun (a, h) ->
      let s = Cs.Stats.create () in
      s.Cs.Stats.accesses <- a + h;
      s.Cs.Stats.hits <- h;
      s.Cs.Stats.misses <- a;
      s)
    (pair (int_range 0 10_000) (int_range 0 10_000))

let prop_add_assoc_comm =
  QCheck.Test.make ~name:"Stats.add associative + commutative" ~count:300
    (QCheck.triple arb_stats arb_stats arb_stats)
    (fun (a, b, c) ->
      let open Cs.Stats in
      equal (add a (add b c)) (add (add a b) c)
      && equal (add a b) (add b a)
      && equal (add a (zero ())) (add (zero ()) a))

let prop_merge_order_independent =
  QCheck.Test.make
    ~name:"merge totals independent of fold order and permutation" ~count:200
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 20) arb_stats) (int_bound 1000))
    (fun (stats, seed) ->
      let open Cs.Stats in
      let left = List.fold_left add (zero ()) stats in
      let right = List.fold_right add stats (zero ()) in
      let shuffled =
        let arr = Array.of_list stats in
        let st = Random.State.make [| seed |] in
        for i = Array.length arr - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = arr.(i) in
          arr.(i) <- arr.(j);
          arr.(j) <- t
        done;
        Array.fold_left add (zero ()) arr
      in
      equal left right && equal left shuffled)

(* --- merged stats through the engine -------------------------------------- *)

let test_merged_stats () =
  let results = E.Engine.run ~jobs:4 (sweep_specs ()) in
  let merged = E.Engine.merged_stats results in
  let total_refs =
    Array.fold_left
      (fun acc (r : E.Job.result) ->
        acc + r.E.Job.interp.Mlc_ir.Interp.total_refs)
      0 results
  in
  match merged with
  | l1 :: _ ->
      Alcotest.(check int) "merged L1 accesses = summed refs" total_refs
        l1.Cs.Stats.accesses
  | [] -> Alcotest.fail "no merged levels"

(* --- golden sweep output ------------------------------------------------ *)

(* `mlc sweep` stdout must be byte-identical however the work is
   scheduled and simulated: worker count, cache state, and backend are
   implementation details that may never leak into results.  Timing and
   progress go to stderr, which this test discards. *)

(* Relative to the test's build directory under `dune runtest`; the
   fallbacks cover running the test executable from the repo root. *)
let mlc_exe =
  List.find_opt Sys.file_exists
    [ "../bin/mlc.exe"; "_build/default/bin/mlc.exe" ]

let capture_stdout cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Buffer.contents buf
  | _ -> Alcotest.fail (Printf.sprintf "command failed: %s" cmd)

let fresh_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mlc_golden_%s_%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let test_golden_sweep () =
  let mlc_exe =
    match mlc_exe with
    | Some exe -> exe
    | None -> Alcotest.fail "mlc.exe not built (missing test dependency)"
  in
  let base = mlc_exe ^ " sweep JACOBI512 --lo 64 --hi 80 --step 8" in
  let cache_fast = fresh_dir "fast" and cache_ref = fresh_dir "ref" in
  let variants =
    [
      ("jobs=1 no-cache fast", " --jobs 1 --no-cache");
      ("jobs=4 no-cache fast", " --jobs 4 --no-cache");
      ("jobs=4 cold cache fast", " --jobs 4 --cache-dir " ^ cache_fast);
      ("jobs=1 warm cache fast", " --jobs 1 --cache-dir " ^ cache_fast);
      ("jobs=1 no-cache reference", " --jobs 1 --no-cache --backend reference");
      ( "jobs=4 cold cache reference",
        " --jobs 4 --backend reference --cache-dir " ^ cache_ref );
    ]
  in
  let outputs =
    List.map (fun (label, args) -> (label, capture_stdout (base ^ args))) variants
  in
  match outputs with
  | [] -> assert false
  | (_, golden) :: rest ->
      Alcotest.(check bool) "golden output non-empty" true (String.length golden > 0);
      List.iter
        (fun (label, out) ->
          Alcotest.(check string) (label ^ " matches golden") golden out)
        rest

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic order" `Quick test_pool_order;
          Alcotest.test_case "failure fails the run" `Quick test_pool_failure;
          Alcotest.test_case "cancel leaves later slots unclaimed" `Quick
            test_pool_cancel;
          Alcotest.test_case "spec failure through engine" `Quick
            test_engine_failure;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential" `Slow
            test_parallel_deterministic;
          Alcotest.test_case "merged stats" `Slow test_merged_stats;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip, second run all hits" `Slow
            test_cache_roundtrip;
          Alcotest.test_case "stale keys and invalidation" `Quick
            test_cache_stale_key;
          Alcotest.test_case "key scheme" `Quick test_cache_key_scheme;
          Alcotest.test_case "default version is the executable's digest"
            `Quick test_cache_default_version;
        ] );
      ( "stats",
        List.map QCheck_alcotest.to_alcotest
          [ prop_add_assoc_comm; prop_merge_order_independent ] );
      ( "golden",
        [
          Alcotest.test_case "sweep stdout stable across jobs/cache/backend"
            `Slow test_golden_sweep;
        ] );
    ]
