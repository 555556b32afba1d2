(* Tests for the kernel-language front end: lexing, parsing, lowering to
   the IR, and equivalence with the hand-built kernels. *)

open Mlc_ir
module F = Mlc_frontend
module K = Mlc_kernels

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let declared p name =
  List.find (fun a -> a.Array_decl.name = name) p.Program.arrays

let jacobi_src n =
  Printf.sprintf
    {|
program jacobi
array A(%d,%d)
array B(%d,%d)

# five-point stencil
for j = 1 to %d {
  for i = 1 to %d {
    A(i,j) = B(i-1,j) + B(i+1,j) + B(i,j-1) + B(i,j+1)
  }
}
for j = 1 to %d {
  for i = 1 to %d {
    B(i,j) = A(i,j) + B(i,j)
  }
}
|}
    n n n n (n - 2) (n - 2) (n - 2) (n - 2)

let test_lexer_basics () =
  let toks = F.Lexer.tokenize "for i = 1 to 10 { A(i) = 2*i }" in
  check_int "token count" 17 (List.length toks);
  let kinds = List.map (fun t -> t.F.Lexer.token) toks in
  check_bool "starts with for" true (List.hd kinds = F.Lexer.KW_FOR);
  check_bool "ends with eof" true (List.nth kinds 16 = F.Lexer.EOF)

let test_lexer_comments_and_positions () =
  let toks = F.Lexer.tokenize "# comment\nfor // trailing\nx" in
  match toks with
  | [ f; x; _eof ] ->
      check_bool "for" true (f.F.Lexer.token = F.Lexer.KW_FOR);
      check_int "for on line 2" 2 f.F.Lexer.line;
      check_bool "x ident" true (x.F.Lexer.token = F.Lexer.IDENT "x");
      check_int "x on line 3" 3 x.F.Lexer.line
  | _ -> Alcotest.fail "expected three tokens"

let test_lexer_rejects_garbage () =
  match F.Lexer.tokenize "for i = 1 ? 2" with
  | exception F.Lexer.Error (_, 1, col) -> check_int "column" 11 col
  | _ -> Alcotest.fail "expected lexer error"

let test_parse_jacobi_structure () =
  let p = F.Parser.parse (jacobi_src 64) in
  check_int "two arrays" 2 (List.length p.Program.arrays);
  check_int "two nests" 2 (List.length p.Program.nests);
  check_int "time steps default" 1 p.Program.time_steps;
  let nest1 = List.hd p.Program.nests in
  Alcotest.(check (list string)) "loop order" [ "j"; "i" ] (Nest.vars nest1);
  check_int "five refs" 5 (List.length (Nest.refs nest1));
  (* flops: three '+' operators *)
  check_int "flops" 3 (List.hd nest1.Nest.body).Stmt.flops

let test_parse_matches_handbuilt_kernel () =
  (* the parsed jacobi must produce exactly the trace of the Build-based
     kernel, modulo the convergence-test statement's extra read *)
  let n = 32 in
  let parsed = F.Parser.parse (jacobi_src n) in
  let built = K.Livermore.jacobi n in
  let lp = Layout.initial parsed and lb = Layout.initial built in
  Alcotest.(check (array int)) "identical traces"
    (Interp.trace lb built) (Interp.trace lp parsed)

let test_parse_steps_and_elem_sizes () =
  let src =
    {|
program mixed steps 3
array K(100) int
array V(100) real
array W(100)

for i = 0 to 99 {
  W(i) = K(i) * V(i)
}
|}
  in
  let p = F.Parser.parse src in
  check_int "steps" 3 p.Program.time_steps;
  check_int "int elem" 4 (declared p "K").Array_decl.elem_size;
  check_int "real elem" 8 (declared p "V").Array_decl.elem_size;
  check_int "default elem" 8 (declared p "W").Array_decl.elem_size;
  check_int "refs per step" 300 (Nest.ref_count (List.hd p.Program.nests));
  check_int "total refs" 900 (Program.ref_count p)

let test_parse_downto_and_affine_bounds () =
  let src =
    {|
program tri
array A(64,64)

for k = 0 to 62 {
  for i = k+1 to 63 {
    A(i,k) = A(k,k) + A(i,k)
  }
}
for i = 63 downto 0 {
  A(i,0) = A(i,0)
}
|}
  in
  let p = F.Parser.parse src in
  let tri = List.hd p.Program.nests in
  (* sum_{k=0}^{62} (63-k) iterations *)
  let expected = List.init 63 (fun k -> 63 - k) |> List.fold_left ( + ) 0 in
  check_int "triangular iterations" expected (Nest.iterations tri);
  let rev = List.nth p.Program.nests 1 in
  let layout = Layout.initial p in
  let trace =
    Interp.trace layout { p with Program.nests = [ rev ] }
  in
  check_bool "downward" true (trace.(0) > trace.(2))

let test_parse_errors () =
  let expect_error src fragment =
    match F.Parser.parse src with
    | exception F.Parser.Error (msg, _, _) ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        if not (contains msg fragment) then
          Alcotest.failf "error %S does not mention %S" msg fragment
    | _ -> Alcotest.failf "expected parse error mentioning %S" fragment
  in
  expect_error "program p\nfor i = 0 to 9 { A(i) = 1 }" "not declared";
  expect_error "program p\narray A(10)\nfor i = 0 to 9 { A(i) = }" "expected an expression";
  expect_error "program p\narray A(10)" "no loop nests";
  expect_error "program p\narray A(10)\nfor i = 0 to 20 { A(i) = 1 }" "invalid program";
  expect_error "program p\narray A(10)\nfor i = 0 to 9 { A(i*i) = 1 }"
    "expected an integer coefficient"

(* [src] fails with a [Parser.Error] at [line]:[col]. *)
let expect_error_at src ~line ~col =
  match F.Parser.parse src with
  | exception F.Parser.Error (_, l, c) ->
      check_int "line" line l;
      check_int "column" col c
  | _ -> Alcotest.failf "expected a parse error at %d:%d" line col

let test_literal_out_of_range () =
  expect_error_at "program p\narray A(99999999999999999999)\nfor i = 0 to 9 { A(i) = 1 }"
    ~line:2 ~col:9

(* A non-positive extent is refused at the extent; an array whose byte
   size, or whose base after the arrays before it, passes [max_int] at
   its name. *)
let test_extents_and_sizes () =
  expect_error_at "program p\narray C(0,5)\nfor i = 0 to 4 { C(1,i) = 1 }" ~line:2 ~col:9;
  expect_error_at "program p\narray A(2305843009213693952)\nfor i = 0 to 9 { A(i) = 1 }"
    ~line:2 ~col:7;
  expect_error_at
    "program p\narray A(576460752303423487)\narray B(2)\nfor i = 0 to 1 { B(i) = A(i) }"
    ~line:3 ~col:7

(* A Validate issue points at the offending nest's [for]. *)
let test_validate_issue_located () =
  expect_error_at
    "program p\narray A(10)\nfor i = 0 to 9 { A(i) = 1 }\n  for i = 0 to 10 { A(i) = 2 }"
    ~line:4 ~col:3

let test_parsed_program_optimizable () =
  (* end-to-end: parse, pad, simulate *)
  let machine = Mlc_cachesim.Machine.ultrasparc in
  let p = F.Parser.parse (jacobi_src 128) in
  let l1_miss_rate strategy =
    let layout = Locality.Pipeline.layout_for machine strategy p in
    List.hd (Interp.run machine layout p).Interp.miss_rates
  in
  check_bool "padding works on parsed programs" true
    (l1_miss_rate Locality.Pipeline.Pad_l1
    <= l1_miss_rate Locality.Pipeline.Original)

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "comments and positions" `Quick
            test_lexer_comments_and_positions;
          Alcotest.test_case "rejects garbage" `Quick test_lexer_rejects_garbage;
        ] );
      ( "parser",
        [
          Alcotest.test_case "jacobi structure" `Quick test_parse_jacobi_structure;
          Alcotest.test_case "matches hand-built kernel" `Quick
            test_parse_matches_handbuilt_kernel;
          Alcotest.test_case "steps and element sizes" `Quick
            test_parse_steps_and_elem_sizes;
          Alcotest.test_case "downto and affine bounds" `Quick
            test_parse_downto_and_affine_bounds;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "integer literal out of range" `Quick
            test_literal_out_of_range;
          Alcotest.test_case "extents and sizes" `Quick test_extents_and_sizes;
          Alcotest.test_case "validate issue at its nest" `Quick
            test_validate_issue_located;
          Alcotest.test_case "optimizable end-to-end" `Quick
            test_parsed_program_optimizable;
        ] );
    ]
