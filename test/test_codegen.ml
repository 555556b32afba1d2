(* Pretty-printer round trips through the parser, and the C code
   generator produces programs that gcc compiles and runs. *)

open Mlc_ir
module K = Mlc_kernels
module F = Mlc_frontend
module L = Locality

let check_bool = Alcotest.(check bool)

let roundtrip p =
  let src = Pretty.program p in
  match F.Parser.parse src with
  | parsed ->
      let l1 = Layout.initial p and l2 = Layout.initial parsed in
      Interp.trace l1 p = Interp.trace l2 parsed
  | exception F.Parser.Error (msg, line, col) ->
      Alcotest.failf "reparse failed at %d:%d: %s\nsource:\n%s" line col msg src

(* Every Table 1 kernel the kernel language can spell, at a small size:
   the five with gather subscripts or two-write statements are refused. *)
let test_pretty_roundtrip_kernels () =
  let printed = ref 0 in
  List.iter
    (fun e ->
      let p = (Option.get e.K.Registry.build_sized) 16 in
      match Pretty.program p with
      | exception Invalid_argument _ -> ()
      | _ ->
          incr printed;
          check_bool (e.K.Registry.name ^ " round-trips") true (roundtrip p))
    K.Registry.all;
  Alcotest.(check int) "kernels printed" 19 !printed;
  List.iter
    (fun (label, p) -> check_bool (label ^ " round-trips") true (roundtrip p))
    [
      ("shal, two steps", { (K.Livermore.shal 12) with Program.time_steps = 2 });
      ("matmul", L.Tiling.matmul 8);
    ]

let prop_pretty_roundtrip_random =
  QCheck.Test.make ~name:"pretty/parse round-trip on random stencils" ~count:50
    QCheck.(triple (int_range 6 20) (int_range 0 2) (int_range 0 2))
    (fun (n, o1, o2) ->
      let open Build in
      let a = arr "A" [ n + 4; n + 4 ] and b = arr "B" [ n + 4; n + 4 ] in
      let i = v "i" and j = v "j" in
      let p =
        program "rand" [ a; b ]
          [
            nest
              [ loop "j" 2 (n + 1); loop "i" 2 (n + 1) ]
              [
                asn (w "A" [ i; j ])
                  [ r "B" [ i +! o1; j -! o2 ]; r "B" [ i -! 1; j ]; r "A" [ i; j ] ];
              ];
          ]
      in
      roundtrip p)

(* --- C codegen -------------------------------------------------------------- *)

let compile_and_run c_source =
  let dir = Filename.temp_dir "mlc_cg" "" in
  Fun.protect
    ~finally:(fun () -> Tmp_tree.rm_rf dir)
    (fun () ->
      let c_path = Filename.concat dir "prog.c" in
      let exe_path = Filename.concat dir "prog" in
      Out_channel.with_open_text c_path (fun oc -> output_string oc c_source);
      let compile =
        Printf.sprintf "gcc -O1 -o %s %s 2> %s/gcc.log" exe_path c_path dir
      in
      if Sys.command compile <> 0 then begin
        let log = In_channel.with_open_text (dir ^ "/gcc.log") In_channel.input_all in
        Alcotest.failf "gcc failed:\n%s" log
      end;
      let out_path = Filename.concat dir "out.txt" in
      if Sys.command (Printf.sprintf "%s > %s" exe_path out_path) <> 0 then
        Alcotest.fail "generated program crashed";
      In_channel.with_open_text out_path In_channel.input_all)

(* jacobi, and APPLU for its downward loops *)
let test_codegen_compiles_and_runs () =
  List.iter
    (fun p ->
      let layout = Layout.initial p in
      let out = compile_and_run (Mlc_codegen.Codegen.emit_c ~repeat:2 layout p) in
      check_bool "prints checksum" true
        (String.length out > 0 && String.sub out 0 8 = "checksum");
      check_bool "prints seconds" true
        (String.split_on_char '\n' out
        |> List.exists (fun l -> String.length l > 7 && String.sub l 0 7 = "seconds")))
    [ K.Livermore.jacobi 64; K.Nas.lu 6 ]

let test_codegen_respects_padding () =
  (* the padded layout grows the heap by exactly the pads *)
  let p = K.Paper_examples.figure2 64 in
  let packed = Layout.initial p in
  let padded = L.Pad.apply ~size:(16 * 1024) ~line:32 p packed in
  let src_packed = Mlc_codegen.Codegen.emit_c packed p in
  let src_padded = Mlc_codegen.Codegen.emit_c padded p in
  let heap_size src =
    (* first line with mlc_heap[<N>UL] *)
    String.split_on_char '\n' src
    |> List.find_map (fun l ->
           match String.index_opt l '[' with
           | Some i when String.length l > 12 && String.sub l 0 6 = "static" ->
               let j = String.index_from l i 'U' in
               Some (int_of_string (String.sub l (i + 1) (j - i - 1)))
           | _ -> None)
    |> Option.get
  in
  check_bool "padded heap larger" true (heap_size src_padded > heap_size src_packed);
  (* and both run *)
  ignore (compile_and_run src_packed);
  ignore (compile_and_run src_padded)

let test_codegen_gather_and_int () =
  (* BUK exercises int arrays and gather tables *)
  let p = K.Nas.buk 500 in
  let layout = Layout.initial p in
  let src = Mlc_codegen.Codegen.emit_c layout p in
  check_bool "emits a table" true
    (let needle = "mlc_table_0" in
     let n = String.length src and m = String.length needle in
     let rec go i = i + m <= n && (String.sub src i m = needle || go (i + 1)) in
     go 0);
  ignore (compile_and_run src)

let test_codegen_tiled_clamps () =
  (* tiled matmul has hi_min clamps; the generated loops must respect
     them (no out-of-bounds writes => no crash with fortify) *)
  let p = L.Tiling.tiled_matmul ~n:20 ~h:6 ~w:7 in
  let layout = Layout.initial p in
  ignore (compile_and_run (Mlc_codegen.Codegen.emit_c layout p))

(* --- F77 codegen -------------------------------------------------------------- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

let test_f77_structure () =
  let p = K.Paper_examples.figure2 64 in
  let layout = L.Pad.apply ~size:(16 * 1024) ~line:32 p (Layout.initial p) in
  let src = Mlc_codegen.Codegen.emit_f77 layout p in
  check_bool "has PROGRAM" true (contains src "PROGRAM MLCGEN");
  check_bool "declares arrays" true (contains src "DOUBLE PRECISION A(64,64)");
  check_bool "realizes pads as PAD arrays" true (contains src "MLCPD");
  check_bool "one COMMON block" true (contains src "COMMON /MLC/");
  check_bool "prints checksum" true (contains src "PRINT *, 'checksum'");
  (* fixed form: no line beyond column 72 *)
  check_bool "fixed-form width respected" true
    (String.split_on_char '\n' src |> List.for_all (fun l -> String.length l <= 72));
  (* every DO is closed *)
  let count needle =
    String.split_on_char '\n' src
    |> List.filter (fun l -> contains l needle)
    |> List.length
  in
  check_bool "DOs balanced with ENDDOs" true (count "DO " >= count "ENDDO");
  (* continuation lines too: BUK's DATA statements run over several *)
  let buk = K.Nas.buk 40 in
  let lines =
    String.split_on_char '\n' (Mlc_codegen.Codegen.emit_f77 (Layout.initial buk) buk)
  in
  check_bool "BUK has continuation lines" true
    (List.exists (fun l -> String.starts_with ~prefix:"     & " l) lines);
  List.iter
    (fun l ->
      if String.length l > 72 then
        Alcotest.failf "line of %d columns: %s" (String.length l) l)
    lines

let test_f77_intra_pad_leading_dimension () =
  let p = K.Livermore.erle 64 in
  let layout =
    Locality.Intra_pad.apply ~size:(16 * 1024) ~line:32 p (Layout.initial p)
  in
  let src = Mlc_codegen.Codegen.emit_f77 layout p in
  (* column padding shows up as a padded leading dimension *)
  let pad = Layout.intra_pad layout "F" in
  check_bool "some intra pad present" true (pad > 0);
  check_bool "padded leading dimension emitted" true
    (contains src (Printf.sprintf "F(%d,64,64)" (64 + pad)))

let test_f77_gather_tables () =
  let p = K.Nas.buk 64 in
  let layout = Layout.initial p in
  let src = Mlc_codegen.Codegen.emit_f77 layout p in
  check_bool "table declared" true (contains src "INTEGER MLCTB0");
  check_bool "data statement" true (contains src "DATA (MLCTB0(MLCI)");
  (* and tables above 4096 entries are refused *)
  let big = K.Nas.buk 5000 in
  match Mlc_codegen.Codegen.emit_f77 (Layout.initial big) big with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an oversized table"

let () =
  Alcotest.run "codegen"
    [
      ( "pretty",
        [
          Alcotest.test_case "kernel round-trips" `Quick test_pretty_roundtrip_kernels;
          QCheck_alcotest.to_alcotest prop_pretty_roundtrip_random;
        ] );
      ( "c",
        [
          Alcotest.test_case "compiles and runs" `Quick test_codegen_compiles_and_runs;
          Alcotest.test_case "respects padding" `Quick test_codegen_respects_padding;
          Alcotest.test_case "gather and int arrays" `Quick test_codegen_gather_and_int;
          Alcotest.test_case "tiled clamps" `Quick test_codegen_tiled_clamps;
        ] );
      ( "f77",
        [
          Alcotest.test_case "structure" `Quick test_f77_structure;
          Alcotest.test_case "intra-pad leading dimension" `Quick
            test_f77_intra_pad_leading_dimension;
          Alcotest.test_case "gather tables" `Quick test_f77_gather_tables;
        ] );
    ]
