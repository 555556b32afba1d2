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

(* The Figure 8 builder's identity: the same MD5 as the gather kernels,
   for every tile [Tile_size.policy_tiles] picks on the bench machine's
   16K L1 and 512K L2 at five sizes, and three edge shapes.  Recorded
   from the strip-mine-and-hoist builder that the literal nest replaced. *)
let tiled_matmul_digests =
  [
    (100, 48, 41, "f22bc6e92b2e7b4e5faf0313a335af4a");
    (100, 50, 81, "fec4cd19fca1f245c5927c2231b0ba61");
    (100, 100, 81, "715611e5db5da80447794d99ed67b36c");
    (100, 100, 655, "29d283230e5dde2910266fbc521f265c");
    (172, 16, 119, "6ad139db3ccac305e6e64c07afa79b18");
    (172, 86, 47, "cf7ec04f8ba96957ff86bbee1a493b0d");
    (172, 86, 95, "b3df11c82e41acdf23fc00376068764b");
    (172, 172, 381, "f1c427887dd1a4821111a90ec3b161ef");
    (244, 44, 42, "7fe4c84e60a038161e0d7f385c9dfc02");
    (244, 72, 56, "b2af93ab420f9af76e8500ae74563dd0");
    (244, 100, 81, "8121f7e87d3bdd443078f290e05fd830");
    (244, 244, 268, "33f37a0ad60fb83ece051314265a6205");
    (316, 152, 13, "0585e4cae4a1c7f1a303eeb57f884c78");
    (316, 62, 66, "37a3ddfb30deefbbe5b19450fda1cd45");
    (316, 68, 120, "ed1b8c3e345d52550ce2db468aeda7f4");
    (316, 316, 207, "b9b41702b016b1e6972e855e531c999a");
    (388, 44, 37, "d60717e6599e1a1ac10c4ca7ada65a8b");
    (388, 36, 113, "49e84609ca744a6d31b5e7cf957676ea");
    (388, 176, 46, "88a9bf8ba61f94306230faf54bc09281");
    (388, 388, 168, "0ccb6c479fd2da4a730b282c9846b6a7");
    (* h > n *)
    (16, 20, 3, "293aa246756a1d814bbbf6a31c98f6e9");
    (* h = w = 1 *)
    (8, 1, 1, "2b8b2260cc572943a3788fcba0902c39");
    (* w does not divide n *)
    (10, 4, 3, "9ea2ccdcc7c7619cda0369b9b7d32177");
  ]

let test_tiled_matmul_digests () =
  let digest_of n h w =
    let p = Locality.Tiling.tiled_matmul ~n ~h ~w in
    Digest.to_hex (Digest.string (Marshal.to_string p [ Marshal.No_sharing ]))
  in
  List.iter
    (fun n ->
      List.iter
        (fun (_, (t : Locality.Tile_size.tile)) ->
          if
            not
              (List.exists
                 (fun (n', h, w, _) -> n' = n && h = t.height && w = t.width)
                 tiled_matmul_digests)
          then Alcotest.failf "n = %d: no digest for tile %dx%d" n t.height t.width)
        (Locality.Tile_size.policy_tiles ~l1:(16 * 1024) ~l2:(512 * 1024) ~elem:8 n))
    [ 100; 172; 244; 316; 388 ];
  List.iter
    (fun (n, h, w, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "n = %d, %dx%d" n h w)
        digest (digest_of n h w))
    tiled_matmul_digests

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
    ~count:(Qcheck_env.count 200)
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
      ( "tiled matmul",
        [ Alcotest.test_case "tiled matmul digests" `Quick test_tiled_matmul_digests ] );
    ]
