(* Scalar replacement: redundant loads disappear from the reference
   stream, writes never do, and the simulated miss counts are unchanged
   in steady state (the dropped references were hits). *)

open Mlc_ir
module Cs = Mlc_cachesim
module K = Mlc_kernels
module L = Locality

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* Reads the rewrite dropped from one nest. *)
let removed ~before ~after =
  List.length (Nest.refs before) - List.length (Nest.refs after)

let test_duplicates_dropped () =
  (* the fused Figure 6 body has three duplicate reads *)
  let fig6 = K.Paper_examples.figure6_fused 64 in
  let nest = List.hd fig6.Program.nests in
  let replaced = L.Scalar_replace.apply ~max_distance:0 nest in
  check_int "three registers" 3 (removed ~before:nest ~after:replaced)

let test_rotation_on_stencil () =
  (* B(i-1,j), B(i+1,j) along inner i: B(i-1) and B(i) rotate out of
     B(i+1)'s loads; the j-direction neighbours have no innermost-loop
     partner and stay. *)
  let p = K.Livermore.jacobi 64 in
  let nest = List.hd p.Program.nests in
  let replaced = L.Scalar_replace.apply ~max_distance:2 nest in
  check_int "one rotated load" 1
    (removed ~before:nest ~after:replaced);
  let names r = r.Ref_.array in
  let remaining = List.map names (Nest.refs replaced) in
  check_int "write kept" 1
    (List.length (List.filter Ref_.is_write (Nest.refs replaced)));
  check_int "three B reads and the A write" 4 (List.length remaining)

let test_writes_never_removed () =
  let open Build in
  let a = arr "A" [ 32 ] in
  ignore a;
  let i = v "i" in
  let nest_dup =
    nest [ loop "i" 0 31 ]
      [
        asn (w "A" [ i ]) [ r "A" [ i ] ];
        asn (w "A" [ i ]) [ r "A" [ i ] ];
      ]
  in
  let replaced = L.Scalar_replace.apply nest_dup in
  check_int "both writes kept" 2
    (List.length (List.filter Ref_.is_write (Nest.refs replaced)));
  (* the second read is a duplicate; the first read survives *)
  check_int "one read kept" 1
    (List.length (List.filter (fun r -> not (Ref_.is_write r)) (Nest.refs replaced)))

let test_misses_preserved () =
  (* on a conflict-free (padded) layout the removed loads were genuine
     hits, so miss counts with and without scalar replacement agree
     (steady state; small boundary slack allowed).  On a thrashing
     packed layout removal would legitimately reduce misses. *)
  let machine = Cs.Machine.ultrasparc in
  List.iter
    (fun p ->
      let p' = L.Scalar_replace.apply_program p in
      let layout = L.Pipeline.layout_for machine L.Pipeline.Pad_l1 p in
      let r = Interp.run machine layout p in
      let r' = Interp.run machine layout p' in
      check_bool
        (Printf.sprintf "%s: misses %d vs %d" p.Program.name
           (List.hd r.Interp.misses) (List.hd r'.Interp.misses))
        true
        (abs (List.hd r.Interp.misses - List.hd r'.Interp.misses)
        < List.hd r.Interp.misses / 20
          + 64);
      check_bool "fewer refs" true
        (r'.Interp.total_refs <= r.Interp.total_refs))
    [ K.Livermore.jacobi 128; K.Paper_examples.figure6_fused 128 ]

let test_downward_loop_direction () =
  let open Build in
  let a = arr "A" [ 64 ] and b = arr "B" [ 64 ] in
  ignore (a, b);
  let i = v "i" in
  (* downward loop: A(i+1) was touched one iteration earlier *)
  let nest_down =
    Nest.make
      [ Loop.make ~step:(-1) "i" ~lo:(c 62) ~hi:(c 0) ]
      [ asn (w "B" [ i ]) [ r "A" [ i ]; r "A" [ i +! 1 ] ] ]
  in
  let replaced = L.Scalar_replace.apply nest_down in
  (* A(i+1) equals previous iteration's A(i): dropped *)
  check_int "rotated on downward loop" 1
    (removed ~before:nest_down ~after:replaced)

let () =
  Alcotest.run "scalar_replace"
    [
      ( "pass",
        [
          Alcotest.test_case "duplicates" `Quick test_duplicates_dropped;
          Alcotest.test_case "stencil rotation" `Quick test_rotation_on_stencil;
          Alcotest.test_case "writes kept" `Quick test_writes_never_removed;
          Alcotest.test_case "misses preserved" `Quick test_misses_preserved;
          Alcotest.test_case "downward loops" `Quick test_downward_loop_direction;
        ] );
    ]
