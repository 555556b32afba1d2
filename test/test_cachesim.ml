(* Unit and property tests for the multi-level cache simulator. *)

module Cs = Mlc_cachesim

let geom size line assoc = { Cs.Level.size; line; assoc }

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* --- Level ------------------------------------------------------------ *)

let test_direct_mapped_basics () =
  let level = Cs.Level.create (geom 1024 32 1) in
  check_bool "cold miss" false (Cs.Level.access level 0);
  check_bool "hit same line" true (Cs.Level.access level 8);
  check_bool "hit line end" true (Cs.Level.access level 31);
  check_bool "miss next line" false (Cs.Level.access level 32);
  (* 1024-byte cache: address 1024 maps onto line of address 0 *)
  check_bool "conflict evicts" false (Cs.Level.access level 1024);
  check_bool "original evicted" false (Cs.Level.access level 0)

let test_direct_mapped_stats () =
  let level = Cs.Level.create (geom 1024 32 1) in
  for i = 0 to 99 do
    ignore (Cs.Level.access level (i * 8))
  done;
  let stats = Cs.Level.stats level in
  check_int "accesses" 100 stats.Cs.Stats.accesses;
  (* 100 accesses of 8B cover 800 bytes = 25 lines *)
  check_int "misses = lines touched" 25 stats.Cs.Stats.misses

let test_lru_two_way () =
  let level = Cs.Level.create (geom 64 16 2) in
  (* 2 sets; addresses 0, 32, 64 all map to set 0. *)
  check_bool "miss a" false (Cs.Level.access level 0);
  check_bool "miss b" false (Cs.Level.access level 32);
  check_bool "hit a" true (Cs.Level.access level 0);
  (* c evicts b (LRU), not a *)
  check_bool "miss c" false (Cs.Level.access level 64);
  check_bool "a survives" true (Cs.Level.access level 0);
  check_bool "b evicted" false (Cs.Level.access level 32)

let test_fully_assoc_lru () =
  let level = Cs.Level.create (geom 64 16 4) in
  (* one set of 4 ways *)
  List.iter (fun a -> ignore (Cs.Level.access level a)) [ 0; 64; 128; 192 ];
  check_bool "all resident" true
    (List.for_all (Cs.Level.access level) [ 0; 64; 128; 192 ]);
  ignore (Cs.Level.access level 256);
  (* LRU victim is 0 after the hits above... the hit order made 0 oldest *)
  check_bool "lru evicted" false (Cs.Level.access level 0)

let test_geometry_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Cs.Level.create (geom 1000 32 1));
  expect_invalid (fun () -> Cs.Level.create (geom 1024 24 1));
  expect_invalid (fun () -> Cs.Level.create (geom 1024 32 3));
  expect_invalid (fun () -> Cs.Level.create (geom 16 32 1));
  expect_invalid (fun () -> Cs.Level.create (geom 1024 32 0))

let test_resident_lines () =
  let level = Cs.Level.create (geom 1024 32 1) in
  ignore (Cs.Level.access level 0);
  ignore (Cs.Level.access level 100);
  let lines = List.sort compare (Cs.Level.resident_lines level) in
  Alcotest.(check (list int)) "lines" [ 0; 96 ] lines

let test_write_allocate_policies () =
  (* write-allocate (default): a write miss installs the line *)
  let wa = Cs.Level.create (geom 1024 32 1) in
  check_bool "write miss" false (Cs.Level.access wa ~write:true 0);
  check_bool "read hits after write-allocate" true (Cs.Level.access wa 8);
  (* no-allocate: the write bypasses, the later read still misses *)
  let nwa = Cs.Level.create ~write_allocate:false (geom 1024 32 1) in
  check_bool "write miss" false (Cs.Level.access nwa ~write:true 0);
  check_bool "read still misses" false (Cs.Level.access nwa 8);
  (* but reads install lines normally, and writes then hit *)
  check_bool "write hits resident line" true (Cs.Level.access nwa ~write:true 8)

let test_writeback_counting () =
  let level = Cs.Level.create (geom 64 32 1) in
  (* two sets; write dirties line 0; conflicting line at 64 evicts it *)
  let writebacks () = (Cs.Level.stats level).Cs.Stats.writebacks in
  ignore (Cs.Level.access level ~write:true 0);
  check_int "no writeback yet" 0 (writebacks ());
  ignore (Cs.Level.access level 64);
  check_int "dirty eviction counted" 1 (writebacks ());
  (* clean eviction: read-only line replaced silently *)
  ignore (Cs.Level.access level 128);
  check_int "clean eviction free" 1 (writebacks ())

let test_writes_vs_writebacks_distinct () =
  (* Regression: write misses and dirty evictions are different axes and
     must never share a counter.  A stream of write misses to disjoint
     lines produces writes without writebacks; only evicting a dirtied
     line produces a writeback, and it does not bump the write count. *)
  let level = Cs.Level.create (geom 64 32 1) in
  ignore (Cs.Level.access level ~write:true 0);
  ignore (Cs.Level.access level ~write:true 32);
  let s = Cs.Level.stats level in
  check_int "write misses counted as writes" 2 s.Cs.Stats.writes;
  check_int "write misses counted as misses" 2 s.Cs.Stats.misses;
  check_int "write misses are not writebacks" 0 s.Cs.Stats.writebacks;
  (* conflicting read evicts the dirty line at set 0 *)
  ignore (Cs.Level.access level 64);
  let s = Cs.Level.stats level in
  check_int "dirty eviction is a writeback" 1 s.Cs.Stats.writebacks;
  check_int "dirty eviction is not a write" 2 s.Cs.Stats.writes;
  (* no-allocate: write misses bypass the level, so no line is ever
     dirtied and later evictions stay silent *)
  let wa = Cs.Level.create ~write_allocate:false (geom 64 32 1) in
  ignore (Cs.Level.access wa ~write:true 0);
  ignore (Cs.Level.access wa 64);
  ignore (Cs.Level.access wa 128);
  let s = Cs.Level.stats wa in
  check_int "no-allocate write miss recorded" 1 s.Cs.Stats.writes;
  check_int "no-allocate write misses never write back" 0 s.Cs.Stats.writebacks

let test_next_line_prefetch () =
  let base = Cs.Level.create (geom 1024 32 1) in
  let pf = Cs.Level.create ~prefetch_next_line:true (geom 1024 32 1) in
  (* sequential walk: without prefetch every line misses; with next-line
     prefetch only the first line of the stream misses *)
  let walk level =
    let misses = ref 0 in
    for i = 0 to 255 do
      if not (Cs.Level.access level (i * 4)) then incr misses
    done;
    !misses
  in
  check_int "no prefetch: one miss per line" 32 (walk base);
  check_int "prefetch: only the first miss" 1 (walk pf);
  (* the prefetcher never fabricates hits on random far jumps *)
  let pf2 = Cs.Level.create ~prefetch_next_line:true (geom 1024 32 1) in
  check_bool "cold far miss" false (Cs.Level.access pf2 0);
  check_bool "far jump still misses" false (Cs.Level.access pf2 8192)

(* --- Hierarchy --------------------------------------------------------- *)

let test_hierarchy_propagation () =
  let h = Cs.Hierarchy.create [ geom 64 16 1; geom 256 16 1 ] in
  check_int "memory on cold miss" 2 (Cs.Hierarchy.access h 0);
  check_int "l1 hit" 0 (Cs.Hierarchy.access h 0);
  (* evict from L1 (64B cache: addr 64 conflicts), keep in L2 *)
  check_int "conflict to l2" 2 (Cs.Hierarchy.access h 64);
  check_int "l2 still holds 0" 1 (Cs.Hierarchy.access h 0)

(* Each level's misses against the total references (L1 accesses), the
   rates [Interp.simulate] reports. *)
let miss_rates h =
  let stats = List.map Cs.Level.stats (Cs.Hierarchy.levels h) in
  let total_refs = (List.hd stats).Cs.Stats.accesses in
  List.map (Cs.Stats.miss_rate_vs ~total_refs) stats

let test_hierarchy_miss_rates () =
  let h = Cs.Hierarchy.create [ geom 64 16 1; geom 256 16 1 ] in
  ignore (Cs.Hierarchy.access h 0);
  ignore (Cs.Hierarchy.access h 0);
  ignore (Cs.Hierarchy.access h 0);
  ignore (Cs.Hierarchy.access h 0);
  match miss_rates h with
  | [ l1; l2 ] ->
      Alcotest.(check (float 1e-9)) "l1 rate" 0.25 l1;
      Alcotest.(check (float 1e-9)) "l2 rate (vs total refs)" 0.25 l2
  | _ -> Alcotest.fail "two levels expected"

let test_ultrasparc_preset () =
  let h = Cs.Hierarchy.create Cs.Machine.ultrasparc.Cs.Machine.geometries in
  check_int "levels" 2 (List.length (Cs.Hierarchy.levels h));
  match Cs.Machine.ultrasparc.Cs.Machine.geometries with
  | [ l1; l2 ] ->
      check_int "l1 size" (16 * 1024) l1.Cs.Level.size;
      check_int "l1 line" 32 l1.Cs.Level.line;
      check_int "l2 size" (512 * 1024) l2.Cs.Level.size;
      check_int "l2 line" 64 l2.Cs.Level.line
  | _ -> Alcotest.fail "two levels expected"

(* --- Cost model -------------------------------------------------------- *)

let test_cost_model () =
  let h = Cs.Hierarchy.create [ geom 64 16 1; geom 256 16 1 ] in
  (* one access: L1 miss, L2 miss, memory *)
  ignore (Cs.Hierarchy.access h 0);
  let model =
    { Cs.Cost_model.hit_cycles = [| 1.0; 10.0 |]; memory_cycles = 100.0; clock_hz = 1e6 }
  in
  let cycles () =
    Cs.Cost_model.cycles_of_stats model (List.map Cs.Level.stats (Cs.Hierarchy.levels h))
  in
  Alcotest.(check (float 1e-9)) "cycles" 111.0 (cycles ());
  (* second access hits L1: +1 cycle *)
  ignore (Cs.Hierarchy.access h 0);
  Alcotest.(check (float 1e-9)) "cycles" 112.0 (cycles ())

let test_improvement () =
  Alcotest.(check (float 1e-9)) "50%" 50.0
    (Cs.Cost_model.improvement ~orig:100.0 ~opt:50.0);
  Alcotest.(check (float 1e-9)) "degradation" (-10.0)
    (Cs.Cost_model.improvement ~orig:100.0 ~opt:110.0)

(* --- Properties -------------------------------------------------------- *)

(* Random traces: miss count of an assoc cache never exceeds the number of
   distinct lines times the worst case; and replaying the same trace twice
   on a big-enough cache yields all hits the second time. *)
let prop_second_pass_hits =
  QCheck.Test.make ~name:"second pass over small working set all hits" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 1000))
    (fun addrs ->
      let level = Cs.Level.create (geom 4096 32 1) in
      List.iter (fun a -> ignore (Cs.Level.access level a)) addrs;
      (* working set is 1001 bytes < 4096 and a direct-mapped 4096 cache
         maps [0,1000] without conflicts *)
      List.for_all (fun a -> Cs.Level.access level a) addrs)

let prop_higher_assoc_never_conflicts_within_set_count =
  QCheck.Test.make ~name:"fully-assoc LRU holds any working set <= ways" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 4) (int_range 0 100_000))
    (fun addrs ->
      let distinct_lines =
        List.sort_uniq compare (List.map (fun a -> a / 32) addrs)
      in
      let level = Cs.Level.create (geom (32 * 8) 32 8) in
      (* one set, 8 ways; at most 4 distinct lines *)
      List.iter (fun a -> ignore (Cs.Level.access level a)) addrs;
      ignore distinct_lines;
      List.for_all (fun a -> Cs.Level.access level a) addrs)

let prop_miss_rates_bounded =
  QCheck.Test.make ~name:"miss rates in [0,1], monotone down levels" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 1_000_000))
    (fun addrs ->
      let h = Cs.Hierarchy.create [ geom 1024 32 1; geom 8192 32 1 ] in
      List.iter (fun a -> ignore (Cs.Hierarchy.access h a)) addrs;
      match miss_rates h with
      | [ l1; l2 ] -> l1 >= 0.0 && l1 <= 1.0 && l2 >= 0.0 && l2 <= l1
      | _ -> false)

let prop_inclusion_like =
  (* With equal line sizes and L2 ⊇ L1 capacity, any L1 hit address was
     previously installed in L2 as well (we never see an L2 access for
     it unless L1 missed): L2 accesses = L1 misses. *)
  QCheck.Test.make ~name:"L2 accesses equal L1 misses" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 300) (int_range 0 100_000))
    (fun addrs ->
      let h = Cs.Hierarchy.create [ geom 512 32 1; geom 4096 32 1 ] in
      List.iter (fun a -> ignore (Cs.Hierarchy.access h a)) addrs;
      match Cs.Hierarchy.levels h with
      | [ l1; l2 ] ->
          (Cs.Level.stats l2).Cs.Stats.accesses = (Cs.Level.stats l1).Cs.Stats.misses
      | _ -> false)

let () =
  Alcotest.run "cachesim"
    [
      ( "level",
        [
          Alcotest.test_case "direct-mapped basics" `Quick test_direct_mapped_basics;
          Alcotest.test_case "direct-mapped stats" `Quick test_direct_mapped_stats;
          Alcotest.test_case "2-way LRU" `Quick test_lru_two_way;
          Alcotest.test_case "fully-assoc LRU" `Quick test_fully_assoc_lru;
          Alcotest.test_case "geometry validation" `Quick test_geometry_validation;
          Alcotest.test_case "resident lines" `Quick test_resident_lines;
          Alcotest.test_case "write policies" `Quick test_write_allocate_policies;
          Alcotest.test_case "writeback counting" `Quick test_writeback_counting;
          Alcotest.test_case "writes vs writebacks distinct" `Quick
            test_writes_vs_writebacks_distinct;
          Alcotest.test_case "next-line prefetch" `Quick test_next_line_prefetch;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "propagation" `Quick test_hierarchy_propagation;
          Alcotest.test_case "miss rates" `Quick test_hierarchy_miss_rates;
          Alcotest.test_case "ultrasparc preset" `Quick test_ultrasparc_preset;
        ] );
      ( "cost",
        [
          Alcotest.test_case "cost model" `Quick test_cost_model;
          Alcotest.test_case "improvement" `Quick test_improvement;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_second_pass_hits;
            prop_higher_assoc_never_conflicts_within_set_count;
            prop_miss_rates_bounded;
            prop_inclusion_like;
          ] );
    ]
