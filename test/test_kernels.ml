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
  let in_group c =
    List.length (List.filter (fun e -> e.K.Registry.category = c) K.Registry.all)
  in
  check_int "8 kernels" 8 (in_group K.Registry.Kernel);
  check_int "8 NAS" 8 (in_group K.Registry.Nas);
  check_int "8 SPEC" 8 (in_group K.Registry.Spec);
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
  let once = K.Livermore.shal 32 in
  let thrice = { once with Program.time_steps = 3 } in
  check_int "refs triple" (3 * Program.ref_count once) (Program.ref_count thrice)

let test_buk_gather_bounds () =
  let p = K.Nas.buk 1000 in
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

(* --- gather builders ----------------------------------------------------- *)

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* The gather kernels' identity, as perfbench's oracle takes it: the MD5 of
   the marshalled IR with no sharing.  Recorded from the [Array.init]
   builders; a builder that fills its tables another way must marshal to
   the same bytes. *)
let gather_digests =
  [
    ("BUK", None, "756bfd7a776cb25b1e3fc66887519234");
    ("BUK", Some 250_000, "1aca7e89de40dcb8dd96857ef884b325");
    ("CGM", None, "48609d826f28e350c7025d6c861d764f");
    ("CGM", Some 20_000, "e60a49f7a5b1b163208791ad95d0c210");
    ("EMBAR", None, "88986476f428cd463f9630d9cc2a8e76");
    ("EMBAR", Some 250_000, "9f7e795b9abe9e1e02e24ef930155eb6");
    ("IRR500K", None, "be09206412057b379ec6982471a13711");
    ("IRR500K", Some 100_000, "64ec6dd4084b3cfa8ae3c1d163f373f0");
    ("WAVE5", None, "a191c96512a448daadcc8535f605bc5e");
  ]

let test_gather_digests () =
  List.iter
    (fun (name, n, digest) ->
      let e = K.Registry.find name in
      let p =
        match n with None -> e.K.Registry.build () | Some n -> (Option.get e.K.Registry.build_sized) n
      in
      Alcotest.(check string)
        (Printf.sprintf "%s at %s" name
           (match n with None -> "its default size" | Some n -> string_of_int n))
        digest
        (Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))))
    gather_digests

(* The tables as [Array.init] built them: the oracle for the loop fills. *)
let oracle_table ~seed ~n ~bound =
  let t = K.Det_random.create ~seed in
  Array.init n (fun _ -> K.Det_random.int t bound)

let oracle_permutation ~seed ~n =
  let t = K.Det_random.create ~seed in
  let a = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = K.Det_random.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let prop_tables_match_oracle =
  QCheck.Test.make ~name:"table and permutation = the Array.init forms"
    ~count:(qcheck_count 200)
    QCheck.(triple int (int_range 0 5000) (int_range 1 (1 lsl 20)))
    (fun (seed, n, bound) ->
      K.Det_random.table ~seed ~n ~bound = oracle_table ~seed ~n ~bound
      && K.Det_random.permutation ~seed ~n = oracle_permutation ~seed ~n)

let test_table_edges () =
  List.iter
    (fun bound ->
      Alcotest.(check (array int))
        (Printf.sprintf "n = 0, bound = %d" bound)
        [||]
        (K.Det_random.table ~seed:7 ~n:0 ~bound))
    [ 1; 0; -1; min_int ];
  Alcotest.(check (array int)) "permutation of 0" [||] (K.Det_random.permutation ~seed:7 ~n:0);
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  raises "table n = -1" (fun () -> K.Det_random.table ~seed:7 ~n:(-1) ~bound:10);
  raises "permutation n = -1" (fun () -> K.Det_random.permutation ~seed:7 ~n:(-1));
  raises "table n = 1, bound = 0" (fun () -> K.Det_random.table ~seed:7 ~n:1 ~bound:0)

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
      ( "gather builders",
        [
          Alcotest.test_case "golden digests" `Quick test_gather_digests;
          Alcotest.test_case "empty and negative sizes" `Quick test_table_edges;
          QCheck_alcotest.to_alcotest prop_tables_match_oracle;
        ] );
    ]
