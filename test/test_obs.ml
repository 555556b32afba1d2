(* The observability layer: span/counter semantics in Mlc_obs, the JSON
   printer's round trip through its parser, Chrome export validated by the
   same checker CI runs, conservation laws tying the simulation counters
   to the reference stream, determinism of the engine's buffer merge
   across worker counts and backends, the Pass-pipeline layouts'
   bit-identity with the historical per-module compositions, and golden
   stdout of the mlc commands (mlc bench included). *)

module Cs = Mlc_cachesim
module E = Mlc_engine
module K = Mlc_kernels
module L = Locality
module Obs = Mlc_obs.Obs
module Json = Mlc_obs.Json
module Tc = Mlc_obs.Trace_check
open Mlc_ir

(* --- span and counter model ----------------------------------------------- *)

(* Spans begun in [buf] and not yet ended. *)
let open_spans buf =
  List.fold_left
    (fun d (e : Obs.event) ->
      match e.Obs.kind with Obs.Span_begin -> d + 1 | Obs.Span_end -> d - 1 | _ -> d)
    0 (Obs.Buf.events buf)

let test_span_model () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Alcotest.(check int) "disabled with_span is pass-through" 42
    (Obs.with_span "nothing" (fun () -> 42));
  Obs.count "dropped";
  Obs.instant "dropped";
  let buf = Obs.Buf.create ~tid:3 () in
  let r =
    Obs.with_buf buf (fun () ->
        Alcotest.(check bool) "enabled under with_buf" true (Obs.enabled ());
        Obs.with_span ~cat:"t" "outer" (fun () ->
            Obs.count ~n:2 "c.x";
            Obs.with_span "inner" (fun () ->
                Obs.instant "tick";
                Obs.count "c.x";
                Obs.count "c.y");
            Alcotest.(check int) "inner span closed" 1 (open_spans buf);
            7))
  in
  Alcotest.(check bool) "disabled again after with_buf" false (Obs.enabled ());
  Alcotest.(check int) "with_span returns the body's value" 7 r;
  Alcotest.(check int) "all spans closed" 0 (open_spans buf);
  Alcotest.(check (list (pair string int)))
    "counter totals, sorted"
    [ ("c.x", 3); ("c.y", 1) ]
    (Obs.Buf.counters buf);
  Alcotest.(check int) "single counter" 3 (Obs.Buf.counter buf "c.x");
  Alcotest.(check int) "absent counter" 0 (Obs.Buf.counter buf "nope");
  (* 2 begins + 2 ends + 1 instant + 3 samples *)
  Alcotest.(check int) "event count" 8 (Obs.Buf.n_events buf);
  (* timestamps never go backwards within a buffer *)
  ignore
    (List.fold_left
       (fun prev (e : Obs.event) ->
         Alcotest.(check bool) "monotone ts" true (e.Obs.ts >= prev);
         e.Obs.ts)
       0 (Obs.Buf.events buf))

let test_span_exception_safe () =
  let buf = Obs.Buf.create () in
  (match
     Obs.with_buf buf (fun () ->
         Obs.with_span "boom" (fun () -> raise Exit))
   with
  | () -> Alcotest.fail "Exit swallowed"
  | exception Exit -> ());
  Alcotest.(check int) "span closed on raise" 0 (open_spans buf);
  Alcotest.(check bool) "buffer uninstalled on raise" false (Obs.enabled ())

(* --- JSON printer --------------------------------------------------------- *)

(* Strings lean on what the printer must escape: quotes, backslashes and
   control characters. *)
let json_gen =
  let open QCheck.Gen in
  let str =
    string_size
      ~gen:(frequency [ (3, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\000'; '\031'; '/' ]); (2, char) ])
      (int_bound 10)
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun s -> Json.String s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
               ( 1,
                 map (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair str (self (n / 4)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_json_floats () =
  List.iter
    (fun f ->
      let printed = Json.to_string (Json.Float f) in
      match Json.parse printed with
      | Json.Float g when g = f -> ()
      | _ -> Alcotest.failf "%h printed as %S does not read back" f printed)
    [ 0.0; 1.0; -2.5; 100.0; 0.1; 6.687; 1e-7; 1e22; Float.pi; max_float; min_float ];
  List.iter
    (fun (v, printed) ->
      Alcotest.(check string) printed (printed ^ "\n") (Json.to_string v))
    [
      (Json.Float 2.0, "2.0");
      (Json.fixed 3 6.68712, "6.687");
      (Json.fixed 4 0.0, "0.0");
      (Json.Float nan, "null");
      (Json.Float infinity, "null");
      (Json.Obj [], "{}");
      ( Json.Obj [ ("k", Json.List [ Json.Obj [ ("a\"b", Json.Int 1) ] ]) ],
        "{\n  \"k\": [\n    {\"a\\\"b\": 1}\n  ]\n}" );
    ]

(* [\u] escapes decode to UTF-8: a surrogate pair is one 4-byte
   character, and a lone or reversed surrogate is a located error. *)
let test_json_unicode () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check bool) src true (Json.parse src = Json.String expected))
    [
      ({|"\u0041"|}, "A");
      ({|"\u00e9"|}, "\xc3\xa9");
      ({|"\u20AC"|}, "\xe2\x82\xac");
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"x\uD800\uDC00y"|}, "x\xf0\x90\x80\x80y");
      ({|"\udbff\udfff"|}, "\xf4\x8f\xbf\xbf");
    ];
  List.iter
    (fun (src, located) ->
      match Json.parse src with
      | _ -> Alcotest.failf "%s parsed" src
      | exception Json.Parse_error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S names %S" src msg located)
            true
            (String.starts_with ~prefix:located msg))
    [
      ({|"\ude00"|}, "at 1: lone low surrogate");
      ({|"\ude00\ud83d"|}, "at 1: lone low surrogate");
      ({|"ab\ud83d"|}, "at 3: lone high surrogate");
      ({|"\ud83dx"|}, "at 1: lone high surrogate");
      ({|"\ud83d\u0041"|}, "at 1: lone high surrogate");
      ({|"\ud83d\ud83d"|}, "at 1: lone high surrogate");
      ({|"\ud83d\uzz00"|}, "at 7: bad \\u escape");
      ({|"\u12"|}, "at 1: bad \\u escape");
    ]

(* --- Chrome export and the validator -------------------------------------- *)

let with_temp_file tag f =
  let path = Filename.temp_file ("mlc_obs_" ^ tag) ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sink_to_file sink buf path =
  let oc = open_out path in
  Obs.Sink.write (sink oc) buf;
  close_out oc

(* Mimics the engine: a worker buffer on its own lane, merged into the
   main buffer while the main buffer's top span is still open.  The
   exported trace must still be globally ts-sorted with matched B/E
   pairs per lane. *)
let merged_buffer () =
  let dst = Obs.Buf.create ~tid:0 () in
  Obs.with_buf dst (fun () ->
      Obs.with_span ~cat:"cli" "top" (fun () ->
          Obs.count ~n:5 "top.counter";
          let w = Obs.Buf.create ~tid:1 () in
          Obs.with_buf w (fun () ->
              Obs.with_span ~cat:"job" "job:0" (fun () ->
                  Obs.instant ~cat:"decision" "chose";
                  Obs.count ~n:3 "job.counter"));
          Obs.Buf.merge ~into:dst w));
  dst

let test_chrome_roundtrip () =
  let dst = merged_buffer () in
  Alcotest.(check int) "merge adds counters" 3
    (Obs.Buf.counter dst "job.counter");
  Alcotest.(check int) "merge keeps counters" 5
    (Obs.Buf.counter dst "top.counter");
  with_temp_file "chrome" (fun path ->
      sink_to_file Obs.Sink.chrome dst path;
      match Tc.validate_file path with
      | Error errs -> Alcotest.fail (String.concat "; " errs)
      | Ok s ->
          Alcotest.(check int) "events" (Obs.Buf.n_events dst) s.Tc.events;
          Alcotest.(check int) "spans" 2 s.Tc.spans;
          Alcotest.(check int) "counter samples" 2 s.Tc.counters;
          Alcotest.(check int) "instants" 1 s.Tc.instants;
          Alcotest.(check int) "lanes" 2 s.Tc.tids)

let test_validator_accepts_minimal () =
  let ok =
    {|{"traceEvents": [
        {"ph": "B", "name": "s", "cat": "t", "ts": 1, "pid": 1, "tid": 0},
        {"ph": "i", "name": "p", "ts": 2, "pid": 1, "tid": 0, "s": "t"},
        {"ph": "C", "name": "c", "ts": 3, "pid": 1, "tid": 0,
         "args": {"value": 7}},
        {"ph": "E", "name": "s", "ts": 4, "pid": 1, "tid": 0}
      ]}|}
  in
  match Tc.validate_string ok with
  | Error errs -> Alcotest.fail (String.concat "; " errs)
  | Ok s ->
      Alcotest.(check int) "events" 4 s.Tc.events;
      Alcotest.(check int) "spans" 1 s.Tc.spans;
      Alcotest.(check int) "counters" 1 s.Tc.counters;
      Alcotest.(check int) "instants" 1 s.Tc.instants;
      Alcotest.(check int) "lanes" 1 s.Tc.tids

let test_validator_rejects () =
  let bad =
    [
      ( "mismatched E name",
        {|{"traceEvents": [
            {"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 0},
            {"ph": "E", "name": "b", "ts": 1, "pid": 1, "tid": 0}]}|} );
      ( "unclosed span",
        {|{"traceEvents": [
            {"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 0}]}|} );
      ( "E without B",
        {|{"traceEvents": [
            {"ph": "E", "name": "a", "ts": 0, "pid": 1, "tid": 0}]}|} );
      ( "ts goes backwards",
        {|{"traceEvents": [
            {"ph": "i", "name": "a", "ts": 5, "pid": 1, "tid": 0},
            {"ph": "i", "name": "b", "ts": 3, "pid": 1, "tid": 0}]}|} );
      ( "negative ts",
        {|{"traceEvents": [
            {"ph": "i", "name": "a", "ts": -1, "pid": 1, "tid": 0}]}|} );
      ( "counter without value",
        {|{"traceEvents": [
            {"ph": "C", "name": "c", "ts": 0, "pid": 1, "tid": 0,
             "args": {}}]}|} );
      ( "unknown phase",
        {|{"traceEvents": [
            {"ph": "Q", "name": "a", "ts": 0, "pid": 1, "tid": 0}]}|} );
      ( "missing ts",
        {|{"traceEvents": [
            {"ph": "i", "name": "a", "pid": 1, "tid": 0}]}|} );
      ("no traceEvents", {|{"foo": 1}|});
      ("JSON syntax error", "{nope");
    ]
  in
  List.iter
    (fun (label, s) ->
      match Tc.validate_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (label ^ ": accepted"))
    bad

(* --- engine merge determinism --------------------------------------------- *)

(* Same sweep test_engine uses: two kernels, two sizes, two strategies. *)
let sweep_specs ?backend () =
  List.concat_map
    (fun name ->
      List.concat_map
        (fun n ->
          List.map
            (fun s ->
              E.Job.simulate ?backend ~layout:(E.Job.Strategy s)
                (E.Job.Registry { name; n = Some n }))
            [ L.Pipeline.Original; L.Pipeline.Grouppad_l1 ])
        [ 64; 72 ])
    [ "JACOBI512"; "EXPL512" ]
  |> Array.of_list

let run_obs ~jobs specs =
  let buf = Obs.Buf.create () in
  let (_ : E.Job.result array) = E.Engine.run ~obs:buf ~jobs specs in
  buf

let run_counters ~jobs specs = Obs.Buf.counters (run_obs ~jobs specs)

(* Decision instants with their args, less timestamps and tids. *)
let decisions buf =
  let arg = function
    | `Int i -> string_of_int i
    | `Float f -> string_of_float f
    | `Str s -> s
    | `Bool b -> string_of_bool b
  in
  List.filter_map
    (fun (e : Obs.event) ->
      if e.Obs.kind = Obs.Instant && e.Obs.cat = "decision" then
        Some
          (String.concat " "
             (e.Obs.name :: List.map (fun (k, v) -> k ^ "=" ^ arg v) e.Obs.args))
      else None)
    (Obs.Buf.events buf)

let test_counters_jobs_invariant () =
  (* No cache: cache-hit counters depend on cache state, everything else
     is a pure function of the specs. *)
  let sequential_buf = run_obs ~jobs:1 (sweep_specs ()) in
  let parallel_buf = run_obs ~jobs:4 (sweep_specs ()) in
  let sequential = Obs.Buf.counters sequential_buf in
  let parallel = Obs.Buf.counters parallel_buf in
  Alcotest.(check (list (pair string int)))
    "counters identical across --jobs 1 and --jobs 4" sequential parallel;
  Alcotest.(check (list string))
    "decision instants identical across --jobs 1 and --jobs 4"
    (decisions sequential_buf) (decisions parallel_buf);
  Alcotest.(check bool) "GROUPPAD explains its pads" true
    (List.exists
       (fun d -> String.length d > 15 && String.sub d 0 15 = "grouppad:score ")
       (decisions parallel_buf));
  let lookup name = List.assoc_opt name parallel in
  Alcotest.(check (option int)) "one engine.jobs per spec" (Some 8)
    (lookup "engine.jobs");
  Alcotest.(check (option int)) "all misses without a cache" (Some 8)
    (lookup "engine.cache.misses");
  Alcotest.(check (option int)) "no hits without a cache" None
    (lookup "engine.cache.hits")

let sim_level_counters counters =
  List.filter
    (fun (name, _) ->
      name = "sim.refs"
      || (String.length name >= 5 && String.sub name 0 5 = "sim.L"))
    counters

let test_counters_backend_invariant () =
  (* The fast simulator must account exactly like the reference cascade;
     only its private sim.fast.* counters may differ (the reference
     backend has none). *)
  let fast = run_counters ~jobs:2 (sweep_specs ~backend:`Fast ()) in
  let reference = run_counters ~jobs:2 (sweep_specs ~backend:`Reference ()) in
  Alcotest.(check (list (pair string int)))
    "per-level counters identical across backends"
    (sim_level_counters reference) (sim_level_counters fast);
  Alcotest.(check bool) "fast backend reports bulk segments" true
    (List.mem_assoc "sim.fast.bulk_segments" fast)

(* A [Fast] spec with prefetch, an associative level, three levels or
   no write-allocate runs on the reference cascade (Fast_sim simulates
   two direct-mapped write-allocate levels only) and says so: one
   [sim.fast.fallbacks] per such job, none for the jobs that run where
   they ask.  A fallen-back job's results are the reference job's.  The
   same holds one level down, for [Interp.run] called without a backend. *)
let test_prefetch_fallback_counted () =
  let spec ?(base = "ultrasparc") ?assoc ?write_allocate backend prefetch_levels =
    E.Job.simulate ~backend
      ~machine:{ (E.Job.machine base) with E.Job.prefetch_levels; assoc; write_allocate }
      ~layout:E.Job.Initial
      (E.Job.Registry { name = "DOT256"; n = Some 4096 })
  in
  let run s =
    let buf = Obs.Buf.create () in
    let r = Obs.with_buf buf (fun () -> E.Job.execute s) in
    (r, Obs.Buf.counter buf "sim.fast.fallbacks")
  in
  let fallbacks s = snd (run s) in
  Alcotest.(check int) "fast spec with L2 prefetch" 1 (fallbacks (spec `Fast [ 1 ]));
  Alcotest.(check int) "fast spec without prefetch" 0 (fallbacks (spec `Fast []));
  Alcotest.(check int) "reference spec with prefetch" 0
    (fallbacks (spec `Reference [ 1 ]));
  let fast, n = run (spec ~assoc:2 `Fast []) in
  let reference, _ = run (spec ~assoc:2 `Reference []) in
  Alcotest.(check int) "fast spec with 2-way levels" 1 n;
  Alcotest.(check bool) "2-way: interp = reference" true
    (fast.E.Job.interp = reference.E.Job.interp);
  Alcotest.(check bool) "2-way: level_stats = reference" true
    (List.for_all2 Cs.Stats.equal fast.E.Job.level_stats reference.E.Job.level_stats);
  List.iter
    (fun (what, fast_spec, reference_spec) ->
      let fast, n = run fast_spec and reference, _ = run reference_spec in
      Alcotest.(check int) ("fast spec, " ^ what) 1 n;
      Alcotest.(check bool) (what ^ ": interp = reference") true
        (fast.E.Job.interp = reference.E.Job.interp))
    [
      ("alpha", spec ~base:"alpha" `Fast [], spec ~base:"alpha" `Reference []);
      ( "no write-allocate",
        spec ~write_allocate:false `Fast [],
        spec ~write_allocate:false `Reference [] );
    ];
  Alcotest.(check int) "fast spec, write-allocate asked for" 0
    (fallbacks (spec ~write_allocate:true `Fast []));
  (* [Interp.run] makes the choice, and asks for [`Fast] by default *)
  let program =
    E.Job.build_program (E.Job.Registry { name = "DOT256"; n = Some 4096 })
  in
  let layout = Layout.initial program in
  let interp ?backend ?prefetch_levels machine =
    let buf = Obs.Buf.create () in
    let r =
      Obs.with_buf buf (fun () ->
          Interp.run ?backend ?prefetch_levels machine layout program)
    in
    (r, Obs.Buf.counter buf "sim.fast.fallbacks")
  in
  List.iter
    (fun (what, machine, prefetch_levels) ->
      let default, n = interp ?prefetch_levels machine in
      let reference, _ = interp ~backend:`Reference ?prefetch_levels machine in
      Alcotest.(check int) ("Interp.run default, " ^ what) 1 n;
      Alcotest.(check bool) ("Interp.run default = reference, " ^ what) true
        (default = reference))
    [
      ("2-way", Cs.Machine.with_associativity 2 Cs.Machine.ultrasparc, None);
      ("L2 prefetch", Cs.Machine.ultrasparc, Some [ 1 ]);
      ("alpha", Cs.Machine.alpha21164, None);
    ];
  Alcotest.(check int) "Interp.run default, ultrasparc" 0
    (snd (interp Cs.Machine.ultrasparc))

(* --- conservation --------------------------------------------------------- *)

let test_counter_conservation () =
  let spec =
    E.Job.simulate ~layout:E.Job.Initial
      (E.Job.Registry { name = "JACOBI512"; n = Some 64 })
  in
  let buf = Obs.Buf.create () in
  let results = E.Engine.run ~obs:buf ~jobs:1 [| spec |] in
  let c name = Obs.Buf.counter buf name in
  let total_refs = results.(0).E.Job.interp.Interp.total_refs in
  (* sim.refs = the job's reference count = the naive trace length *)
  Alcotest.(check int) "sim.refs = result refs" total_refs (c "sim.refs");
  let program =
    match (K.Registry.find "JACOBI512").K.Registry.build_sized with
    | Some f -> f 64
    | None -> Alcotest.fail "JACOBI512 not size-parameterized"
  in
  let trace_len = Array.length (Interp.trace (Layout.initial program) program) in
  Alcotest.(check int) "sim.refs = trace length" trace_len (c "sim.refs");
  (* every reference enters L1 *)
  Alcotest.(check int) "sim.L1.accesses = sim.refs" (c "sim.refs")
    (c "sim.L1.accesses");
  (* per level: accesses split into hits and misses; misses cascade *)
  let levels = List.length results.(0).E.Job.level_stats in
  for i = 1 to levels do
    let l suffix = c (Printf.sprintf "sim.L%d.%s" i suffix) in
    Alcotest.(check bool)
      (Printf.sprintf "L%d sees traffic" i)
      true
      (l "accesses" > 0);
    Alcotest.(check int)
      (Printf.sprintf "L%d hits+misses = accesses" i)
      (l "accesses")
      (l "hits" + l "misses");
    if i < levels then
      Alcotest.(check int)
        (Printf.sprintf "L%d accesses = L%d misses" (i + 1) i)
        (l "misses")
        (c (Printf.sprintf "sim.L%d.accesses" (i + 1)))
  done

(* --- pass pipeline vs historical composition ------------------------------ *)

(* The pre-Pass Pipeline.layout_for, reconstructed from the individual
   padding modules.  Pipeline.passes must reproduce it bit for bit. *)
let old_layout_for machine strategy program =
  let layout = Layout.initial program in
  let g =
    match machine.Cs.Machine.geometries with
    | g :: _ -> g
    | [] -> invalid_arg "machine without cache levels"
  in
  let s1 = g.Cs.Level.size and l1_line = g.Cs.Level.line in
  let with_intra layout =
    L.Intra_pad.apply ~size:s1 ~line:l1_line program layout
  in
  match strategy with
  | L.Pipeline.Original -> layout
  | L.Pipeline.Pad_l1 ->
      L.Pad.apply ~size:s1 ~line:l1_line program (with_intra layout)
  | L.Pipeline.Pad_multilevel ->
      L.Multilvlpad.apply machine program (with_intra layout)
  | L.Pipeline.Grouppad_l1 ->
      L.Grouppad.apply ~size:s1 ~line:l1_line program (with_intra layout)
  | L.Pipeline.Grouppad_l1_l2 ->
      let layout =
        L.Grouppad.apply ~size:s1 ~line:l1_line program (with_intra layout)
      in
      let l2_size =
        match machine.Cs.Machine.geometries with
        | _ :: g2 :: _ -> g2.Cs.Level.size
        | _ -> s1
      in
      L.Maxpad.apply_l2 ~s1 ~l2_size layout

let check_layouts_equal msg a b =
  Alcotest.(check (list string))
    (msg ^ ": arrays")
    (Layout.array_names a) (Layout.array_names b);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s base" msg name)
        (Layout.base a name) (Layout.base b name);
      Alcotest.(check int)
        (Printf.sprintf "%s: %s pad_before" msg name)
        (Layout.pad_before a name)
        (Layout.pad_before b name);
      Alcotest.(check int)
        (Printf.sprintf "%s: %s intra_pad" msg name)
        (Layout.intra_pad a name)
        (Layout.intra_pad b name))
    (Layout.array_names a);
  Alcotest.(check int)
    (msg ^ ": total_bytes")
    (Layout.total_bytes a) (Layout.total_bytes b)

let test_pass_pipeline_layouts () =
  let programs =
    List.map
      (fun (name, n) ->
        match (K.Registry.find name).K.Registry.build_sized with
        | Some f -> f n
        | None -> Alcotest.fail (name ^ " not size-parameterized"))
      [ ("JACOBI512", 64); ("EXPL512", 64); ("ADI32", 32) ]
  in
  List.iter
    (fun machine ->
      List.iter
        (fun program ->
          List.iter
            (fun strategy ->
              let msg =
                Printf.sprintf "%s/%s/%s" machine.Cs.Machine.name
                  program.Program.name
                  (L.Pipeline.strategy_name strategy)
              in
              check_layouts_equal msg
                (old_layout_for machine strategy program)
                (L.Pipeline.layout_for machine strategy program))
            (List.map snd E.Job.strategies))
        programs)
    [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ]

(* --- golden: mlc simulate --metrics --------------------------------------- *)

let mlc_exe =
  List.find_opt Sys.file_exists
    [ "../bin/mlc.exe"; "_build/default/bin/mlc.exe" ]

let mlc args =
  match mlc_exe with
  | Some exe -> exe ^ " " ^ args
  | None -> Alcotest.fail "mlc.exe not built (missing test dependency)"

(* The command's exit status and whatever it wrote to [stream]. *)
let capture ~stream cmd =
  let redirect = if stream = `Stdout then " 2>/dev/null" else " 2>&1 >/dev/null" in
  let ic = Unix.open_process_in (cmd ^ redirect) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

let capture_stdout cmd =
  match capture ~stream:`Stdout cmd with
  | Unix.WEXITED 0, out -> out
  | _ -> Alcotest.fail (Printf.sprintf "command failed: %s" cmd)

let test_golden_simulate_metrics () =
  let base = mlc "simulate JACOBI512 -n 64" in
  let plain = capture_stdout base in
  let with_metrics = capture_stdout (base ^ " --metrics") in
  (* --metrics appends to stdout; it may not perturb the simulation
     output that precedes it *)
  let marker = "metrics:\n" in
  let split =
    let rec find i =
      if i + String.length marker > String.length with_metrics then
        Alcotest.fail "--metrics output has no metrics section"
      else if String.sub with_metrics i (String.length marker) = marker then i
      else find (i + 1)
    in
    find 0
  in
  Alcotest.(check string) "simulation output unchanged by --metrics" plain
    (String.sub with_metrics 0 split);
  let expected =
    String.concat ""
      (marker
      :: List.map
           (fun (name, v) -> Printf.sprintf "  %-36s %d\n" name v)
           [
             ("pass.pad.decisions", 1);
             ("sim.L1.accesses", 61504);
             ("sim.L1.hits", 40143);
             ("sim.L1.misses", 21361);
             ("sim.L1.writebacks", 9158);
             ("sim.L1.writes", 15376);
             ("sim.L2.accesses", 21361);
             ("sim.L2.hits", 19345);
             ("sim.L2.misses", 2016);
             ("sim.L2.writes", 4836);
             (* the backend's own work counters: they move with
                Fast_sim's algorithm, the sim.L* ones never do *)
             ("sim.fast.bulk_iterations", 7564);
             ("sim.fast.bulk_segments", 3844);
             ("sim.fast.seq_iterations", 7812);
             ("sim.refs", 61504);
           ])
  in
  Alcotest.(check string) "golden metrics section" expected
    (String.sub with_metrics split (String.length with_metrics - split))

(* --- golden: stdout of the simulating commands ------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let heat2d =
  List.find_opt Sys.file_exists
    [ "../examples/kernels/heat2d.mlc"; "examples/kernels/heat2d.mlc" ]

(* Recorded before simulate/run/fuse moved onto one local helper and the
   compile log onto the pass pipeline. *)
let golden_outputs =
  [
    ( "simulate JACOBI512 -n 64",
      None,
      [
        "jacobi64 on UltraSparc I (16K/32B L1, 512K/64B L2, direct-mapped)";
        "  Orig                         refs=30752      L1=53.33% L2= 3.28% cycles=1.795e+05 mflops=15.3";
        "  L1 Opt (PAD)                 refs=30752      L1=16.14% L2= 3.28% cycles=1.109e+05 mflops=24.8";
        "  model-time improvement: 38.22%";
      ] );
    ( "run " ^ Option.value heat2d ~default:"heat2d.mlc",
      None,
      [
        "heat2d on UltraSparc I (16K/32B L1, 512K/64B L2, direct-mapped)";
        "  Orig                         refs=3552160    L1=15.11% L2= 6.30% cycles=1.796e+07 mflops=19.8";
        "  L1 Opt (PAD)                 refs=3552160    L1=15.11% L2= 6.30% cycles=1.796e+07 mflops=19.8";
        "  model-time improvement: 0.00%";
      ] );
    ( "fuse EXPL512 -n 64",
      None,
      [
        "original nests 0,1: register=10 l1_hits=18 l2_refs=0 memory_refs=12";
        "fused:              register=13 l1_hits=18 l2_refs=0 memory_refs=9";
        "simulated: original                     refs=176824     L1= 9.06% L2= 2.56% cycles=4.993e+05 mflops=50.6";
        "           fused                        refs=176824     L1= 7.37% L2= 2.56% cycles=4.814e+05 mflops=52.5";
      ] );
    ( "tile 64",
      None,
      [
        "matmul 64x64:";
        "  orig                    40.22 MFLOPS (model)";
        "  L1     tile   64x32      49.76 MFLOPS (model)";
        "  2xL1   tile   64x64      40.22 MFLOPS (model)";
        "  4xL1   tile   64x128     40.22 MFLOPS (model)";
        "  L2     tile   64x1024    40.22 MFLOPS (model)";
      ] );
    (* only the metrics and layout lines: the decision log lists passes *)
    ( "compile EXPL512 -n 128",
      Some
        (fun line ->
          List.exists
            (fun prefix -> String.starts_with ~prefix line)
            [ "program "; "  original "; "  optimized "; "  model-time" ]
          || contains line "pad_before"),
      [
        "program expl128 on UltraSparc I (16K/32B L1, 512K/64B L2, direct-mapped)";
        "    ZB: pad_before 444544B";
        "    ZM: pad_before 460928B";
        "    ZP: pad_before 445568B";
        "    ZQ: pad_before 461952B";
        "    ZR: pad_before 445568B";
        "    ZU: pad_before 449280B";
        "    ZV: pad_before 444416B";
        "    ZZ: pad_before 459904B";
        "  original   L1 91.82% L2 29.13%  cycles 1.539e+07";
        "  optimized  L1  8.31% L2  3.46%  cycles 2.359e+06";
        "  model-time improvement: 84.67%";
      ] );
    (* a program too small to issue any reference: no rates, no NaN *)
    ( "curve EXPL512 --size 1",
      None,
      [ "expl1: 0 references, 0 distinct lines (cold)"; "no references to rate" ] );
  ]

let test_golden_outputs () =
  if heat2d = None then Alcotest.fail "heat2d.mlc not found (missing test dependency)";
  List.iter
    (fun (args, keep, expected) ->
      let lines = String.split_on_char '\n' (capture_stdout (mlc args)) in
      let lines = List.filter (Option.value keep ~default:(fun l -> l <> "")) lines in
      Alcotest.(check (list string)) ("mlc " ^ args) expected lines)
    golden_outputs

(* --- mlc bench: the Table 1 golden, the engine record and its trace ---------- *)

let bench_expected =
  List.find_opt Sys.file_exists [ "bench_fast.expected"; "test/bench_fast.expected" ]

(* [mlc bench ARGS] run inside a fresh directory, which receives
   BENCH_engine.json; [f dir stdout] reads the results. *)
let in_bench_dir args f =
  let exe =
    match mlc_exe with
    | Some exe when Filename.is_relative exe -> Filename.concat (Sys.getcwd ()) exe
    | Some exe -> exe
    | None -> Alcotest.fail "mlc.exe not built (missing test dependency)"
  in
  let dir = Filename.temp_dir "mlc_bench" "" in
  (* the run may leave a result cache directory behind *)
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      f dir
        (capture_stdout
           (Printf.sprintf "cd %s && %s bench %s" (Filename.quote dir) exe args)))

let test_golden_bench_table1 () =
  let expected =
    match bench_expected with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "bench_fast.expected not found (missing test dependency)"
  in
  (* the header line, a blank line, then the Table 1 block up to the next
     blank line *)
  let rec block = function "" :: _ | [] -> [] | l :: rest -> l :: block rest in
  let expected =
    match String.split_on_char '\n' expected with
    | header :: "" :: rest -> String.concat "\n" (header :: "" :: block rest) ^ "\n"
    | _ -> Alcotest.fail "bench_fast.expected does not start with a header line"
  in
  in_bench_dir "fast table1" (fun _ out ->
      Alcotest.(check string) "mlc bench fast table1" expected out)

let test_bench_record_and_trace () =
  in_bench_dir "fast predict --no-cache --jobs 2 --trace trace.json" (fun dir _ ->
      let path name = Filename.concat dir name in
      (match Tc.validate_file (path "trace.json") with
      | Ok s -> Alcotest.(check bool) "trace has job spans" true (s.Tc.spans > 2)
      | Error errs -> Alcotest.fail (String.concat "; " errs));
      let record =
        Json.parse (In_channel.with_open_bin (path "BENCH_engine.json") In_channel.input_all)
      in
      let field k =
        match record with
        | Json.Obj kvs -> List.assoc_opt k kvs
        | _ -> Alcotest.fail "BENCH_engine.json is not an object"
      in
      Alcotest.(check bool) "mode" true (field "mode" = Some (Json.String "fast"));
      Alcotest.(check bool) "jobs" true (field "jobs" = Some (Json.Int 2));
      Alcotest.(check bool) "jobs done" true (field "jobs_done" = Some (Json.Int 12));
      match field "sections" with
      | Some (Json.List [ Json.Obj section ]) ->
          Alcotest.(check bool) "section name" true
            (List.assoc_opt "name" section = Some (Json.String "predict"))
      | _ -> Alcotest.fail "sections is not a one-section list")

(* Span counts per name are a deterministic property of the work: the same
   at one worker and at two.  Every job builds its program inside one
   [kernel:build] span. *)
let test_bench_span_counts () =
  let span_counts jobs =
    in_bench_dir
      (Printf.sprintf "fast predict --no-cache --jobs %d --trace trace.json" jobs)
      (fun dir _ ->
        let trace =
          Json.parse
            (In_channel.with_open_bin (Filename.concat dir "trace.json") In_channel.input_all)
        in
        let events =
          match trace with
          | Json.Obj kvs -> (
              match List.assoc_opt "traceEvents" kvs with
              | Some (Json.List evs) -> evs
              | _ -> Alcotest.fail "no traceEvents list")
          | _ -> Alcotest.fail "trace is not an object"
        in
        let counts = Hashtbl.create 64 in
        List.iter
          (function
            | Json.Obj kvs when List.assoc_opt "ph" kvs = Some (Json.String "B") -> (
                match List.assoc_opt "name" kvs with
                | Some (Json.String name) ->
                    Hashtbl.replace counts name
                      (1 + Option.value (Hashtbl.find_opt counts name) ~default:0)
                | _ -> Alcotest.fail "span without a name")
            | _ -> ())
          events;
        List.sort compare (List.of_seq (Hashtbl.to_seq counts)))
  in
  let one = span_counts 1 in
  Alcotest.(check (list (pair string int))) "span counts, --jobs 1 = --jobs 2" one
    (span_counts 2);
  Alcotest.(check (option int)) "one kernel:build per job" (Some 12)
    (List.assoc_opt "kernel:build" one)

(* The fastsim section counts its jobs like every other section: five
   programs on each of the two backends, five runs each (a program's
   time is the median of its runs), and the references they
   streamed.  Its own record lists each program's wall time on both
   backends next to the totals. *)
let test_bench_fastsim_record () =
  in_bench_dir "fast fastsim --no-cache" (fun dir _ ->
      let read name =
        Json.parse (In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all)
      in
      let field record k =
        match record with
        | Json.Obj kvs -> List.assoc_opt k kvs
        | _ -> Alcotest.fail "record is not an object"
      in
      let engine = read "BENCH_engine.json" in
      Alcotest.(check bool) "jobs done" true (field engine "jobs_done" = Some (Json.Int 50));
      (match field engine "refs_streamed" with
      | Some (Json.Int refs) -> Alcotest.(check bool) "refs streamed" true (refs > 0)
      | _ -> Alcotest.fail "no refs_streamed");
      let fastsim = read "BENCH_fastsim.json" in
      let seconds record k =
        match field record k with
        | Some (Json.Float s) -> s
        | Some (Json.Int s) -> float_of_int s
        | _ -> Alcotest.fail ("no " ^ k)
      in
      (match field fastsim "programs" with
      | Some (Json.List programs) ->
          Alcotest.(check (list string)) "programs"
            [ "JACOBI512/orig"; "JACOBI512/grouppad"; "EXPL512/orig"; "EXPL512/l2maxpad";
              "SHAL512/orig" ]
            (List.map
               (fun p ->
                 match field p "program" with
                 | Some (Json.String name) -> name
                 | _ -> Alcotest.fail "a program without a name")
               programs);
          List.iter
            (fun k ->
              let total = seconds fastsim k in
              let sum = List.fold_left (fun acc p -> acc +. seconds p k) 0.0 programs in
              Alcotest.(check bool) (k ^ ": the programs' sum") true
                (Float.abs (sum -. total) < 0.01))
            [ "reference_wall_s"; "fast_wall_s" ]
      | _ -> Alcotest.fail "no programs list");
      match field fastsim "total_refs" with
      | Some (Json.Int refs) -> Alcotest.(check bool) "total refs" true (refs > 0)
      | _ -> Alcotest.fail "no total_refs")

(* A section named twice prints its block twice, and the second time reads
   the first's results: Figure 10's 15 cells run once. *)
let test_bench_section_twice () =
  let lines =
    match bench_expected with
    | Some path ->
        String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
    | None -> Alcotest.fail "bench_fast.expected not found (missing test dependency)"
  in
  let title l = String.length l > 2 && String.sub l 0 2 = "= " in
  (* Figure 10's block: from the blank line before its banner to the last
     line before the blank line that opens the next section's banner *)
  let rec from_figure10 = function
    | "" :: bar :: t :: rest when String.starts_with ~prefix:"= Figure 10:" t ->
        "" :: bar :: t :: upto_next rest
    | _ :: rest -> from_figure10 rest
    | [] -> Alcotest.fail "no Figure 10 block in bench_fast.expected"
  and upto_next = function
    | "" :: _ :: t :: _ when title t -> []
    | l :: rest -> l :: upto_next rest
    | [] -> []
  in
  let header = List.hd lines in
  let block = String.concat "\n" (from_figure10 lines) ^ "\n" in
  in_bench_dir "fast figure10 figure10 --no-cache" (fun dir out ->
      Alcotest.(check string) "Figure 10 twice" (header ^ "\n" ^ block ^ block) out;
      let record =
        Json.parse
          (In_channel.with_open_bin (Filename.concat dir "BENCH_engine.json")
             In_channel.input_all)
      in
      match record with
      | Json.Obj kvs ->
          Alcotest.(check bool) "jobs done" true
            (List.assoc_opt "jobs_done" kvs = Some (Json.Int 15))
      | _ -> Alcotest.fail "BENCH_engine.json is not an object")

(* --- mlc emit: the three printers on downward loops, pads, gathers ---------- *)

let emit_expected =
  List.find_opt Sys.file_exists [ "emit.expected"; "test/emit.expected" ]

(* APPLU: downward loops and, under l2maxpad, a PAD array in the COMMON
   block; BUK: gather tables and 4-byte elements; FFTPDE: a coefficient
   of 2. *)
let emit_golden_args =
  [
    "APPLU -n 6 -s l2maxpad --lang mlc";
    "APPLU -n 6 -s l2maxpad --lang c";
    "APPLU -n 6 -s l2maxpad --lang f77";
    "BUK -n 40 --lang c";
    "BUK -n 40 --lang f77";
    "FFTPDE -n 64 --lang mlc";
  ]

let test_golden_emit () =
  let expected =
    match emit_expected with
    | Some path -> In_channel.with_open_bin path In_channel.input_all
    | None -> Alcotest.fail "emit.expected not found (missing test dependency)"
  in
  let actual =
    String.concat ""
      (List.map
         (fun args -> "$ mlc emit " ^ args ^ "\n" ^ capture_stdout (mlc ("emit " ^ args)))
         emit_golden_args)
  in
  Alcotest.(check string) "mlc emit" expected actual

(* --- bad input: one line naming the value, non-zero, never a crash -------- *)

let bad_inputs =
  [
    ("simulate FOO", [ "FOO"; "mlc list" ]);
    ("simulate JACOBI512 --machine foo", [ "'foo'"; "'ultrasparc'"; "'alpha'" ]);
    ("simulate JACOBI512 -s bogus", [ "'bogus'"; "'orig'"; "'l2maxpad'" ]);
    ("sweep JACOBI512 --strategies zz --no-cache", [ "'zz'"; "'grouppad'" ]);
    ("sweep JACOBI512 --error-policy zz --no-cache", [ "'zz'"; "'fail-fast'"; "'collect'" ]);
    ("sweep JACOBI512 --backend zz --no-cache", [ "'zz'"; "'fast'"; "'reference'" ]);
    ("fuse EXPL512 -n 64 --nest 9", [ "--nest 9"; "0..1" ]);
    ("simulate JACOBI512 -n 0", [ "'0'"; "positive integer" ]);
    ("tile 0", [ "'0'"; "positive integer" ]);
    ("emit JACOBI512 --lang zz", [ "'zz'"; "'c'"; "'f77'"; "'mlc'" ]);
    ("sweep JACOBI512 --lo 300 --hi 200 --no-cache", [ "--lo 300"; "--hi 200" ]);
    ("sweep JACOBI512 --step 0 --no-cache", [ "'0'"; "positive integer" ]);
    ("sweep JACOBI512 --step=-5 --no-cache", [ "'-5'"; "positive integer" ]);
    ("sweep JACOBI512 --jobs 0 --no-cache", [ "'0'"; "positive integer" ]);
    ("sweep JACOBI512 --jobs=-3 --no-cache", [ "'-3'"; "positive integer" ]);
    ("emit JACOBI512 --repeat 0", [ "'0'"; "positive integer" ]);
    ("emit IRR500K --lang mlc", [ "irr500k"; "gather" ]);
    ("emit BUK -n 5000 --lang f77", [ "buk5000"; "5000 entries"; "4096" ]);
    ("emit WAVE5 --lang mlc", [ "wave5"; "at most one write" ]);
  ]

let test_bad_input () =
  List.iter
    (fun (args, needles) ->
      let status, err = capture ~stream:`Stderr (mlc args) in
      let code = match status with Unix.WEXITED c -> c | _ -> -1 in
      if code = 0 || code = 125 || code < 0 then
        Alcotest.failf "mlc %s: exit status %d" args code;
      let first = List.hd (String.split_on_char '\n' err) in
      List.iter
        (fun needle ->
          if not (contains first needle) then
            Alcotest.failf "mlc %s: %S does not mention %s" args first needle)
        needles)
    bad_inputs

(* Every registry kernel at a tiny size, one run at a time: it simulates,
   or refuses on one line with exit 123 (a kernel with no size, or a size
   its builder rejects), never an uncaught exception. *)
let test_simulate_tiny_sizes () =
  List.iter
    (fun (e : K.Registry.entry) ->
      List.iter
        (fun n ->
          let args = Printf.sprintf "simulate %s -n %d" e.K.Registry.name n in
          match capture ~stream:`Stderr (mlc args) with
          | Unix.WEXITED 0, _ -> ()
          | Unix.WEXITED 123, err when List.length (String.split_on_char '\n' err) = 2 -> ()
          | Unix.WEXITED code, err -> Alcotest.failf "mlc %s: exit %d: %s" args code err
          | _ -> Alcotest.failf "mlc %s: killed" args)
        [ 1; 2; 4 ])
    K.Registry.all

let () =
  Alcotest.run "obs"
    [
      ( "model",
        [
          Alcotest.test_case "spans, counters, instants" `Quick test_span_model;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safe;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
          Alcotest.test_case "floats and layout" `Quick test_json_floats;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome export validates" `Quick
            test_chrome_roundtrip;
        ] );
      ( "validator",
        [
          Alcotest.test_case "accepts a well-formed trace" `Quick
            test_validator_accepts_minimal;
          Alcotest.test_case "rejects malformed traces" `Quick
            test_validator_rejects;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "counters invariant under --jobs" `Slow
            test_counters_jobs_invariant;
          Alcotest.test_case "counters invariant under backend" `Slow
            test_counters_backend_invariant;
        ] );
      ( "conservation",
        [
          Alcotest.test_case "per-level counter laws" `Slow
            test_counter_conservation;
          Alcotest.test_case "prefetch fallback counted" `Quick
            test_prefetch_fallback_counted;
        ] );
      ( "passes",
        [
          Alcotest.test_case "Pass pipeline = historical layouts" `Quick
            test_pass_pipeline_layouts;
        ] );
      ( "golden",
        [
          Alcotest.test_case "simulate --metrics" `Slow
            test_golden_simulate_metrics;
          Alcotest.test_case "simulate/run/fuse/tile/compile" `Slow
            test_golden_outputs;
          Alcotest.test_case "mlc bench fast table1" `Slow test_golden_bench_table1;
          Alcotest.test_case "bench record and trace parse" `Slow
            test_bench_record_and_trace;
          Alcotest.test_case "bench fastsim record" `Slow test_bench_fastsim_record;
          Alcotest.test_case "bench section named twice" `Slow test_bench_section_twice;
          Alcotest.test_case "bench span counts across --jobs" `Slow test_bench_span_counts;
          Alcotest.test_case "mlc emit" `Quick test_golden_emit;
          Alcotest.test_case "bad input fails cleanly" `Quick test_bad_input;
          Alcotest.test_case "simulate at tiny sizes" `Quick test_simulate_tiny_sizes;
        ] );
    ]
