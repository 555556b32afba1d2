(* Stack-distance analysis: checked against direct simulation of fully
   associative LRU caches — the defining property of the method. *)

module Cs = Mlc_cachesim

let check_int = Alcotest.(check int)

let test_simple_trace () =
  (* lines: a b a c b a  (line = 32 bytes) *)
  let trace = [| 0; 32; 0; 64; 32; 0 |] in
  let sd = Cs.Stack_distance.analyze ~line:32 trace in
  check_int "total" 6 (Cs.Stack_distance.total sd);
  check_int "cold" 3 (Cs.Stack_distance.cold sd);
  (* distances: a@2 -> 1 other (b); b@4 -> 2 others (a, c); a@5 -> 2 (c, b) *)
  (* capacity 2 lines: hits need d+1 <= 2: only the first reuse hits *)
  check_int "misses at 2 lines" 5 (Cs.Stack_distance.misses_at sd ~lines:2);
  check_int "misses at 3 lines" 3 (Cs.Stack_distance.misses_at sd ~lines:3);
  check_int "misses at 1 line" 6 (Cs.Stack_distance.misses_at sd ~lines:1)

let fully_assoc_misses ~line ~lines trace =
  let level = Cs.Level.create { Cs.Level.size = line * lines; line; assoc = lines } in
  Array.iter (fun a -> ignore (Cs.Level.access level ~write:false a)) trace;
  (Cs.Level.stats level).Cs.Stats.misses

let prop_matches_lru_simulation =
  QCheck.Test.make
    ~name:"misses_at = fully-associative LRU simulation (all capacities)"
    ~count:(Qcheck_env.count 100)
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (int_range 0 4000))
        (int_range 1 5))
    (fun (addrs, log_lines) ->
      let trace = Array.of_list addrs in
      let lines = 1 lsl log_lines in
      let sd = Cs.Stack_distance.analyze ~line:32 trace in
      Cs.Stack_distance.misses_at sd ~lines
      = fully_assoc_misses ~line:32 ~lines trace)

let prop_curve_monotone =
  QCheck.Test.make ~name:"miss curve is non-increasing in capacity" ~count:(Qcheck_env.count 100)
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 10_000))
    (fun addrs ->
      let sd = Cs.Stack_distance.analyze (Array.of_list addrs) in
      let curve =
        Cs.Stack_distance.miss_curve sd ~capacities:[ 1; 2; 4; 8; 16; 32; 64 ]
      in
      let rec mono = function
        | (_, m1) :: ((_, m2) :: _ as rest) -> m1 >= m2 && mono rest
        | _ -> true
      in
      mono curve)

let prop_cold_equals_distinct_lines =
  QCheck.Test.make ~name:"cold misses = distinct lines" ~count:(Qcheck_env.count 100)
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 10_000))
    (fun addrs ->
      let sd = Cs.Stack_distance.analyze ~line:32 (Array.of_list addrs) in
      let distinct = List.sort_uniq compare (List.map (fun a -> a / 32) addrs) in
      Cs.Stack_distance.cold sd = List.length distinct)

let prop_inclusion_monotone =
  (* The defining inclusion property of LRU stacks, checked per access:
     any access that hits a fully-associative LRU cache of S lines also
     hits one of 2S lines fed the same stream. *)
  QCheck.Test.make
    ~name:"per-access inclusion: hits at S lines are hits at 2S lines"
    ~count:(Qcheck_env.count 100)
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 300) (int_range 0 8000))
        (int_range 0 4))
    (fun (addrs, log_lines) ->
      let lines = 1 lsl log_lines in
      let small =
        Cs.Level.create { Cs.Level.size = 32 * lines; line = 32; assoc = lines }
      in
      let big =
        Cs.Level.create
          { Cs.Level.size = 32 * 2 * lines; line = 32; assoc = 2 * lines }
      in
      List.for_all
        (fun addr ->
          let hit_small = Cs.Level.access small ~write:false addr in
          let hit_big = Cs.Level.access big ~write:false addr in
          (not hit_small) || hit_big)
        addrs)

let prop_histogram_accounts_every_access =
  (* Every access lands either in the cold count or in exactly one
     histogram bucket, so the two always sum to the trace length; a
     0-line cache misses on every bucket, so misses_at 0 is that sum. *)
  QCheck.Test.make
    ~name:"cold + histogram total = trace length"
    ~count:(Qcheck_env.count 100)
    QCheck.(list_of_size Gen.(int_range 0 300) (int_range 0 10_000))
    (fun addrs ->
      let trace = Array.of_list addrs in
      let sd = Cs.Stack_distance.analyze ~line:32 trace in
      Cs.Stack_distance.total sd = Array.length trace
      && Cs.Stack_distance.misses_at sd ~lines:0 = Array.length trace)

let test_kernel_curve_brackets_levels () =
  (* EXPL's reuse is bracketed by the two cache levels: a 16K-worth of
     lines holds much less of the reuse than a 512K-worth. *)
  let p = Mlc_kernels.Livermore.expl 128 in
  let layout = Mlc_ir.Layout.initial p in
  let trace = Mlc_ir.Interp.trace layout p in
  let sd = Cs.Stack_distance.analyze ~line:32 trace in
  let m16k = Cs.Stack_distance.misses_at sd ~lines:(16 * 1024 / 32) in
  let m512k = Cs.Stack_distance.misses_at sd ~lines:(512 * 1024 / 32) in
  Alcotest.(check bool) "bigger cache catches more reuse" true (m512k < m16k);
  Alcotest.(check bool) "cold below both" true (Cs.Stack_distance.cold sd <= m512k)

let () =
  Alcotest.run "stack_distance"
    [
      ( "unit",
        [
          Alcotest.test_case "simple trace" `Quick test_simple_trace;
          Alcotest.test_case "kernel curve brackets levels" `Quick
            test_kernel_curve_brackets_levels;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_lru_simulation;
            prop_curve_monotone;
            prop_cold_equals_distinct_lines;
            prop_inclusion_monotone;
            prop_histogram_accounts_every_access;
          ] );
    ]
