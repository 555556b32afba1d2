(* Tests for the benchmark kernel builders: every registered program
   validates, has the advertised array/nest structure, and reference
   counts scale as expected. *)

open Mlc_ir
module K = Mlc_kernels

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let test_all_validate () =
  List.iter
    (fun e ->
      let p = Trace_oracle.small_build e in
      match Validate.check p with
      | [] -> ()
      | issues ->
          Alcotest.failf "%s: %s" e.K.Registry.name
            (String.concat "; "
               (List.map (Format.asprintf "%a" Validate.pp_issue) issues)))
    K.Registry.all

let test_registry_inventory () =
  check_int "8 kernels" 8 (List.length K.Registry.kernels);
  check_int "8 NAS" 8 (List.length K.Registry.nas);
  check_int "8 SPEC" 8 (List.length K.Registry.spec);
  check_int "24 programs (Table 1)" 24 (List.length K.Registry.all);
  check_bool "find is case-insensitive" true
    ((K.Registry.find "expl512").K.Registry.name = "EXPL512")

let test_expl_structure () =
  let p = K.Livermore.expl 64 in
  check_int "nine arrays" 9 (List.length p.Program.arrays);
  check_int "three nests" 3 (List.length p.Program.nests);
  (* Livermore 18 loop ranges: (n-2)^2 iterations per nest *)
  check_int "iterations" ((64 - 2) * (64 - 2))
    (Nest.iterations (List.hd p.Program.nests))

let test_shal_structure () =
  let p = K.Livermore.shal 64 in
  check_int "thirteen arrays" 13 (List.length p.Program.arrays);
  check_int "three calc nests" 3 (List.length p.Program.nests)

let test_jacobi_refs () =
  let p = K.Livermore.jacobi 32 in
  (* nest1: 5 refs * 30^2; nest2: 3 refs * 30^2 *)
  check_int "ref count" ((5 * 30 * 30) + (3 * 30 * 30)) (Program.ref_count p)

let test_dot_flops () =
  let p = K.Livermore.dot 1000 in
  check_int "2 flops per element" 2000 (Program.flop_count p)

let test_linpackd_triangular () =
  let p = K.Livermore.linpackd 8 in
  (* update nest: sum_{k=0}^{6} (7-k)^2 iterations *)
  let expected = List.fold_left (fun acc k -> acc + ((7 - k) * (7 - k))) 0 [ 0; 1; 2; 3; 4; 5; 6 ] in
  check_int "triangular update size" expected
    (Nest.iterations (List.nth p.Program.nests 1))

let test_irr_gather_tables_deterministic () =
  let p1 = K.Livermore.irr 1000 in
  let p2 = K.Livermore.irr 1000 in
  let layout = Layout.initial p1 in
  Alcotest.(check (array int)) "same trace both builds"
    (Interp.trace layout p1) (Interp.trace layout p2)

let test_erle_planes_collide () =
  (* the raison d'être of intra-variable padding in the paper *)
  let p = K.Livermore.erle 64 in
  let layout = Layout.initial p in
  check_bool "64^2 plane is a multiple of 16K" true
    (64 * 64 * 8 mod (16 * 1024) = 0);
  check_bool "same-array plane conflicts" true
    (Locality.Intra_pad.remaining_self_conflicts ~size:(16 * 1024) ~line:32 p layout
     <> [])

let test_time_steps_multiply () =
  let once = K.Livermore.shal ~time_steps:1 32 in
  let thrice = K.Livermore.shal ~time_steps:3 32 in
  check_int "refs triple" (3 * Program.ref_count once) (Program.ref_count thrice)

let test_buk_gather_bounds () =
  let p = K.Nas.buk ~buckets:64 1000 in
  Alcotest.(check (list string)) "valid" []
    (List.map (Format.asprintf "%a" Validate.pp_issue) (Validate.check p))

let test_paper_examples_match_paper_refs () =
  let p = K.Paper_examples.figure2 64 in
  let nest1 = List.nth p.Program.nests 0 in
  let nest2 = List.nth p.Program.nests 1 in
  check_int "nest1 has 6 refs" 6 (List.length (Nest.refs nest1));
  check_int "nest2 has 4 refs" 4 (List.length (Nest.refs nest2));
  let fused = K.Paper_examples.figure6_fused 64 in
  check_int "fused nest has 10 refs" 10
    (List.length (Nest.refs (List.hd fused.Program.nests)))

let () =
  Alcotest.run "kernels"
    [
      ( "registry",
        [
          Alcotest.test_case "all validate" `Slow test_all_validate;
          Alcotest.test_case "inventory" `Quick test_registry_inventory;
        ] );
      ( "structure",
        [
          Alcotest.test_case "EXPL (Liv18)" `Quick test_expl_structure;
          Alcotest.test_case "SHAL arrays" `Quick test_shal_structure;
          Alcotest.test_case "JACOBI refs" `Quick test_jacobi_refs;
          Alcotest.test_case "DOT flops" `Quick test_dot_flops;
          Alcotest.test_case "LINPACKD triangular" `Quick test_linpackd_triangular;
          Alcotest.test_case "IRR deterministic" `Quick test_irr_gather_tables_deterministic;
          Alcotest.test_case "ERLE plane conflicts" `Quick test_erle_planes_collide;
          Alcotest.test_case "time steps" `Quick test_time_steps_multiply;
          Alcotest.test_case "BUK gather bounds" `Quick test_buk_gather_bounds;
          Alcotest.test_case "paper examples" `Quick test_paper_examples_match_paper_refs;
        ] );
    ]
