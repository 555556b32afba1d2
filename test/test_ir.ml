(* Tests for the loop-nest IR: expressions, layout/addressing, loops,
   interpretation (fast path vs naive trace), validation. *)

open Mlc_ir
module Cs = Mlc_cachesim

let qcheck_count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* --- Expr -------------------------------------------------------------- *)

let test_expr_algebra () =
  let e = Expr.add (Expr.term 2 "i") (Expr.add (Expr.var "j") (Expr.const 3)) in
  check_int "coeff i" 2 (Expr.coeff e "i");
  check_int "coeff j" 1 (Expr.coeff e "j");
  check_int "coeff k" 0 (Expr.coeff e "k");
  check_int "const" 3 (Expr.const_part e);
  Alcotest.(check (list string)) "vars" [ "i"; "j" ] (Expr.vars e);
  let e2 = Expr.sub e (Expr.term 2 "i") in
  check_bool "cancelled" false (List.mem "i" (Expr.vars e2));
  check_int "eval" 13 (Expr.eval (function "i" -> 2 | "j" -> 6 | _ -> 0) e)

let test_expr_subst_shift () =
  let e = Expr.add (Expr.term 3 "i") (Expr.const 1) in
  let shifted = Expr.shift "i" (-2) e in
  (* 3*(i-2) + 1 = 3i - 5 *)
  check_int "coeff" 3 (Expr.coeff shifted "i");
  check_int "const" (-5) (Expr.const_part shifted);
  let renamed = Expr.rename (fun v -> if v = "i" then "k" else v) e in
  check_int "renamed coeff" 3 (Expr.coeff renamed "k");
  check_int "old gone" 0 (Expr.coeff renamed "i")

let test_expr_equal_normal_form () =
  let a = Expr.add (Expr.var "i") (Expr.var "j") in
  let b = Expr.add (Expr.var "j") (Expr.var "i") in
  check_bool "commutative normal form" true (a = b)

(* --- Array_decl & Layout ----------------------------------------------- *)

let test_dim_strides () =
  let a = Array_decl.make "A" [ 4; 5; 6 ] in
  Alcotest.(check (list int)) "strides" [ 1; 4; 20 ] (Array_decl.dim_strides a);
  check_int "bytes" 960 (Array_decl.size_bytes a)

let test_layout_packed () =
  let a = Array_decl.make "A" [ 10 ] and b = Array_decl.make "B" [ 10 ] in
  let l = Layout.of_arrays [ a; b ] in
  check_int "A base" 0 (Layout.base l "A");
  check_int "B base" 80 (Layout.base l "B");
  check_int "total" 160 (Layout.total_bytes l)

let test_layout_pads () =
  let a = Array_decl.make "A" [ 10 ] and b = Array_decl.make "B" [ 10 ] in
  let l = Layout.of_arrays [ a; b ] in
  let l = Layout.set_pad_before l "B" 32 in
  check_int "B shifted" 112 (Layout.base l "B");
  let l = Layout.add_pad_before l "B" 32 in
  check_int "B shifted more" 144 (Layout.base l "B");
  check_int "pad recorded" 64 (Layout.pad_before l "B");
  (* pad before A shifts everything *)
  let l = Layout.set_pad_before l "A" 8 in
  check_int "A shifted" 8 (Layout.base l "A");
  check_int "B shifted too" 152 (Layout.base l "B")

let test_layout_intra_pad () =
  let a = Array_decl.make "A" [ 4; 3 ] in
  let l = Layout.of_arrays [ a ] in
  let a12 = Ref_.read_a "A" [ Expr.const 1; Expr.const 2 ] in
  let address l = Layout.address_of_ref l (fun _ -> 0) a12 in
  check_int "addr (1,2) packed" ((1 + (4 * 2)) * 8) (address l);
  let l = Layout.set_intra_pad l "A" 1 in
  (* columns now 5 long *)
  check_int "addr (1,2) padded" ((1 + (5 * 2)) * 8) (address l);
  check_int "size grows" (5 * 3 * 8) (Layout.total_bytes l)

let test_layout_address_expr () =
  let a = Array_decl.make "A" [ 8; 8 ] in
  let l = Layout.of_arrays [ a ] in
  let r = Ref_.read_a "A" [ Expr.var "i"; Expr.add (Expr.var "j") (Expr.const 1) ] in
  let addr = Layout.address_expr l r in
  (* base 0 + 8*(i + 8*(j+1)) = 8i + 64j + 64 *)
  check_int "i stride" 8 (Expr.coeff addr "i");
  check_int "j stride" 64 (Expr.coeff addr "j");
  check_int "const" 64 (Expr.const_part addr)

let test_layout_alignment () =
  let a = Array_decl.make "A" [ 3 ] and b = Array_decl.make "B" [ 3 ] in
  let l = Layout.of_arrays [ a; b ] in
  let l = Layout.set_pad_before l "B" 3 in
  (* 24 + 3 = 27, aligned up to 32 *)
  check_int "aligned" 32 (Layout.base l "B")

(* --- Loop -------------------------------------------------------------- *)

let env_empty v = invalid_arg ("unbound " ^ v)

let collect loop env =
  let out = ref [] in
  Loop.iter env loop (fun iv -> out := iv :: !out);
  List.rev !out

let test_loop_basic () =
  Alcotest.(check (list int)) "0..3" [ 0; 1; 2; 3 ] (collect (Loop.range "i" 0 3) env_empty);
  check_int "trip" 4 (Loop.trip_count env_empty (Loop.range "i" 0 3));
  Alcotest.(check (list int)) "empty" [] (collect (Loop.range "i" 3 0) env_empty)

let test_loop_step () =
  let l = Loop.make ~step:3 "i" ~lo:(Expr.const 0) ~hi:(Expr.const 10) in
  Alcotest.(check (list int)) "step 3" [ 0; 3; 6; 9 ] (collect l env_empty);
  check_int "trip" 4 (Loop.trip_count env_empty l)

let test_loop_negative_step () =
  let l = Loop.make ~step:(-2) "i" ~lo:(Expr.const 9) ~hi:(Expr.const 2) in
  Alcotest.(check (list int)) "down" [ 9; 7; 5; 3 ] (collect l env_empty);
  check_int "trip" 4 (Loop.trip_count env_empty l)

let test_loop_clamp () =
  let l =
    Loop.make "i" ~lo:(Expr.const 4) ~hi:(Expr.const 9) ~hi_min:(Expr.const 6)
  in
  Alcotest.(check (list int)) "clamped" [ 4; 5; 6 ] (collect l env_empty)

(* --- Nest / Program ---------------------------------------------------- *)

let test_nest_iterations_triangular () =
  let nest =
    Nest.make
      [
        Loop.range "k" 0 3;
        Loop.make "i" ~lo:(Expr.add (Expr.var "k") (Expr.const 1)) ~hi:(Expr.const 3);
      ]
      [ Stmt.make [ Ref_.read_a "A" [ Expr.var "i" ] ] ]
  in
  (* k=0: i=1..3 (3); k=1: 2; k=2: 1; k=3: 0 *)
  check_int "triangular iterations" 6 (Nest.iterations nest)

let test_program_counts () =
  let a = Array_decl.make "A" [ 10 ] in
  let nest =
    Nest.make [ Loop.range "i" 0 9 ]
      [ Stmt.make ~flops:2 [ Ref_.read_a "A" [ Expr.var "i" ] ] ]
  in
  let p = Program.make ~time_steps:3 "p" [ a ] [ nest ] in
  check_int "refs" 30 (Program.ref_count p);
  check_int "flops" 60 (Program.flop_count p)

let test_program_duplicate_array () =
  let a = Array_decl.make "A" [ 10 ] in
  match Program.make "p" [ a; a ] [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of duplicate array"

(* --- Validate ----------------------------------------------------------- *)

let test_validate_catches () =
  let a = Array_decl.make "A" [ 10 ] in
  let bad_arity =
    Program.make "bad" [ a ]
      [
        Nest.make [ Loop.range "i" 0 9 ]
          [ Stmt.make [ Ref_.read_a "A" [ Expr.var "i"; Expr.var "i" ] ] ];
      ]
  in
  check_bool "arity" true (Validate.check bad_arity <> []);
  let unbound =
    Program.make "unbound" [ a ]
      [ Nest.make [ Loop.range "i" 0 9 ] [ Stmt.make [ Ref_.read_a "A" [ Expr.var "z" ] ] ] ]
  in
  check_bool "unbound var" true (Validate.check unbound <> []);
  let oob =
    Program.make "oob" [ a ]
      [ Nest.make [ Loop.range "i" 0 10 ] [ Stmt.make [ Ref_.read_a "A" [ Expr.var "i" ] ] ] ]
  in
  check_bool "out of bounds" true (Validate.check oob <> []);
  let ok =
    Program.make "ok" [ a ]
      [ Nest.make [ Loop.range "i" 0 9 ] [ Stmt.make [ Ref_.read_a "A" [ Expr.var "i" ] ] ] ]
  in
  Alcotest.(check (list string)) "clean" []
    (List.map (Format.asprintf "%a" Validate.pp_issue) (Validate.check ok));
  (* one out-of-range table named by two references (and a third that
     reads it against a wider array): the issue is listed once per
     reference, as a scan per reference would list it *)
  let b = Array_decl.make "B" [ 12 ] in
  let table = [| 3; 10; -1; 11 |] in
  let g name = Ref_.read name [ Subscript.gather ~table ~index:(Expr.var "i") ] in
  let shared =
    Program.make "shared" [ a; b ]
      [ Nest.make [ Loop.range "i" 0 3 ] [ Stmt.make [ g "A"; g "B"; g "A" ] ] ]
  in
  Alcotest.(check (list string)) "shared table"
    [
      "nest 0: A: gather table entry 10 out of [0,10)";
      "nest 0: A: gather table entry -1 out of [0,10)";
      "nest 0: A: gather table entry 11 out of [0,10)";
      "nest 0: B: gather table entry -1 out of [0,12)";
      "nest 0: A: gather table entry 10 out of [0,10)";
      "nest 0: A: gather table entry -1 out of [0,10)";
      "nest 0: A: gather table entry 11 out of [0,10)";
    ]
    (List.map (Format.asprintf "%a" Validate.pp_issue) (Validate.check shared))

(* --- Interp ------------------------------------------------------------- *)

let small_machine =
  {
    Cs.Machine.name = "test";
    geometries = [ { Cs.Level.size = 256; line = 32; assoc = 1 } ];
    cost = { Cs.Cost_model.hit_cycles = [| 1.0 |]; memory_cycles = 10.0; clock_hz = 1e6 };
  }

let test_interp_counts () =
  let a = Array_decl.make "A" [ 64 ] in
  let p =
    Program.make "p" [ a ]
      [
        Nest.make [ Loop.range "i" 0 63 ]
          [ Stmt.make ~flops:1 [ Ref_.read_a "A" [ Expr.var "i" ] ] ];
      ]
  in
  let layout = Layout.initial p in
  let result = Interp.run small_machine layout p in
  check_int "refs" 64 result.Interp.total_refs;
  check_int "flops" 64 result.Interp.flops;
  (* 64 doubles = 512 bytes = 16 lines; cache 256B, so every line is a
     cold miss: 16 misses *)
  Alcotest.(check (list int)) "misses" [ 16 ] result.Interp.misses

let test_interp_trace_order () =
  let a = Array_decl.make "A" [ 4; 4 ] in
  let p =
    Program.make "p" [ a ]
      [
        Nest.make [ Loop.range "j" 0 1; Loop.range "i" 0 1 ]
          [ Stmt.make [ Ref_.read_a "A" [ Expr.var "i"; Expr.var "j" ] ] ];
      ]
  in
  let layout = Layout.initial p in
  let trace = Interp.trace layout p in
  (* column-major: (i,j) at (i + 4j)*8 *)
  Alcotest.(check (array int)) "trace" [| 0; 8; 32; 40 |] trace

let test_interp_gather () =
  let x = Array_decl.make "X" [ 8 ] in
  let table = [| 3; 1; 3; 0 |] in
  let p =
    Program.make "p" [ x ]
      [
        Nest.make [ Loop.range "i" 0 3 ]
          [ Stmt.make [ Ref_.read "X" [ Subscript.gather ~table ~index:(Expr.var "i") ] ] ];
      ]
  in
  let layout = Layout.initial p in
  Alcotest.(check (array int)) "gather trace" [| 24; 8; 24; 0 |] (Interp.trace layout p)

(* A gather index that leaves its table only at a later iteration still
   fails the whole run, on every sink, with [Subscript.eval]'s message. *)
let test_interp_gather_out_of_table () =
  let x = Array_decl.make "X" [ 8 ] and y = Array_decl.make "Y" [ 4; 3 ] in
  let table = [| 7; 0; 5; 2 |] in
  let i = Expr.var "i" and j = Expr.var "j" in
  let p =
    Program.make "p" [ x; y ]
      [
        Nest.make
          [ Loop.range "j" 0 2; Loop.range "i" 0 2 ]
          [
            Stmt.make
              [
                Ref_.read_a "Y" [ i; j ];
                Ref_.read "X" [ Subscript.gather ~table ~index:(Expr.add i j) ];
              ];
          ];
      ]
  in
  let layout = Layout.initial p in
  let expect what f =
    Alcotest.check_raises what
      (Invalid_argument "Subscript.eval: gather index 4 outside table of 4") (fun () ->
        ignore (f ()))
  in
  expect "trace" (fun () -> Interp.trace layout p);
  expect "reference" (fun () -> Interp.run ~backend:`Reference small_machine layout p);
  expect "fast" (fun () -> Interp.run ~backend:`Fast small_machine layout p)

(* --- Walker vs the naive evaluator ---------------------------------------- *)

(* [Interp.trace] must equal the naive list-environment evaluator address
   for address, in order. *)
let check_walker name layout p =
  let got = Interp.trace layout p and want = Trace_oracle.naive_trace layout p in
  let n = min (Array.length got) (Array.length want) in
  let rec first i = if i < n && got.(i) = want.(i) then first (i + 1) else i in
  let i = first 0 in
  if i < n then
    Alcotest.failf "%s: address %d is %d, naive evaluator gives %d" name i got.(i)
      want.(i);
  check_int (name ^ ": trace length") (Array.length want) (Array.length got)

let test_walker_registry () =
  List.iter
    (fun (e : Mlc_kernels.Registry.entry) ->
      let p = Trace_oracle.small_build e in
      check_walker e.Mlc_kernels.Registry.name (Layout.initial p) p)
    Mlc_kernels.Registry.all

(* The walker folds bases, inter-variable pads and intra-pad strides into
   each reference's columns at compile time, gathers included; the naive
   evaluator recomputes them per access.  So the registry check is
   repeated under the layouts the padding strategies produce, and on an
   intra-padded array whose gather subscripts sit in padded dimensions. *)
let test_walker_padded_layouts () =
  List.iter
    (fun strategy ->
      List.iter
        (fun (e : Mlc_kernels.Registry.entry) ->
          let p = Trace_oracle.small_build e in
          let layout = Locality.Pipeline.layout_for Cs.Machine.ultrasparc strategy p in
          check_walker
            (Printf.sprintf "%s under %s" e.Mlc_kernels.Registry.name
               (Locality.Pipeline.strategy_name strategy))
            layout p)
        Mlc_kernels.Registry.all)
    [ Locality.Pipeline.Pad_l1; Locality.Pipeline.Pad_multilevel ];
  let a = Array_decl.make "A" [ 7; 9; 3 ] and b = Array_decl.make "B" [ 9; 9 ] in
  let i = Expr.var "i" and j = Expr.var "j" in
  let rows = [| 6; 0; 3; 5; 1; 2; 4 |] and cols = [| 8; 2; 7; 0; 5; 1; 3; 6; 4 |] in
  let row index = Subscript.gather ~table:rows ~index
  and col index = Subscript.gather ~table:cols ~index in
  let aff e = Subscript.affine e in
  let p =
    Program.make ~time_steps:2 "padded gathers" [ b; a ]
      [
        Nest.make
          [ Loop.range "j" 0 3; Loop.range "i" 0 5 ]
          [
            Stmt.make
              [
                Ref_.read "A" [ aff (Expr.add i (Expr.const 1)); col j; aff (Expr.const 2) ];
                Ref_.read "A" [ row i; col (Expr.add i j); aff (Expr.const 1) ];
                Ref_.read_a "B" [ i; j ];
                Ref_.write "A" [ row j; aff i; aff (Expr.const 0) ];
              ];
          ];
      ]
  in
  let layout = Layout.set_intra_pad (Layout.initial p) "A" 3 in
  let layout = Layout.set_pad_before layout "A" 40 in
  let layout = Layout.set_intra_pad layout "B" 1 in
  check_walker "intra-padded gathers" layout p

let test_walker_tiled_matmul () =
  (* tile loops clamp their upper bounds with min(KK+W-1, N) *)
  let p = Locality.Tiling.tiled_matmul ~n:23 ~h:5 ~w:7 in
  check_walker "tiled matmul" (Layout.initial p) p;
  let p = Locality.Tiling.matmul 17 in
  check_walker "matmul" (Layout.initial p) p

let test_walker_downward_and_flat () =
  let a = Array_decl.make "A" [ 12; 12 ] in
  let i = Expr.var "i" and j = Expr.var "j" in
  let body =
    [
      Stmt.make
        [
          Ref_.read_a "A" [ Expr.add i (Expr.const 1); j ];
          Ref_.write_a "A" [ i; j ];
        ];
    ]
  in
  let down_inner =
    Nest.make
      [ Loop.range "j" 0 10; Loop.make ~step:(-2) "i" ~lo:(Expr.const 10) ~hi:j ]
      body
  in
  let down_outer =
    Nest.make
      [
        Loop.make ~step:(-1) "j" ~lo:(Expr.const 11) ~hi:(Expr.const 3);
        Loop.range "i" 0 9;
      ]
      body
  in
  (* [Nest.make] insists on a loop; transforms can still leave a bare body *)
  let flat =
    {
      Nest.loops = [];
      body =
        [
          Stmt.make
            [
              Ref_.read_a "A" [ Expr.const 3; Expr.const 4 ];
              Ref_.write_a "A" [ Expr.const 0; Expr.const 0 ];
            ];
        ];
    }
  in
  let p = Program.make ~time_steps:2 "p" [ a ] [ down_inner; flat; down_outer ] in
  let layout = Layout.initial p in
  check_walker "downward and zero-depth" layout p;
  check_int "zero-depth body issues each ref once" 2
    (Array.length (Interp.trace layout (Program.make ~time_steps:1 "f" [ a ] [ flat ])))

(* The walker hands the two innermost loops to the sink as one segment
   when the innermost bounds leave the next-outer variable alone, and
   falls back to one row per call when they mention it.  Both shapes are
   checked against the naive evaluator, and both backends against each
   other. *)
let test_walker_two_loop () =
  let a = Array_decl.make "A" [ 12; 12; 8 ] in
  let i = Expr.var "i" and j = Expr.var "j" and k = Expr.var "k" in
  let body =
    [
      Stmt.make
        [
          Ref_.read_a "A" [ Expr.add i (Expr.const 1); j; k ];
          Ref_.read_a "A" [ j; i; k ];
          Ref_.write_a "A" [ i; j; k ];
        ];
    ]
  in
  let c = Expr.const in
  let check name loops =
    let p = Program.make ~time_steps:2 name [ a ] [ Nest.make loops body ] in
    let layout = Layout.set_intra_pad (Layout.initial p) "A" 1 in
    check_walker name layout p;
    List.iter
      (fun machine ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: fast = reference on %s" name machine.Cs.Machine.name)
          true
          (Interp.run ~backend:`Reference machine layout p
          = Interp.run ~backend:`Fast machine layout p))
      [ Cs.Machine.ultrasparc; Cs.Machine.alpha21164 ]
  in
  (* innermost bounds mention k, the outermost variable: no trip while
     k < 2, two-loop segments over (j, i) otherwise *)
  check "innermost bound on the outermost variable"
    [
      Loop.range "k" 0 5;
      Loop.range "j" 0 4;
      Loop.make "i" ~lo:(c 0) ~hi:(Expr.sub k (c 2));
    ];
  (* the same with a downward row loop, an innermost step and a clamp on k *)
  check "downward rows, clamped inner loop"
    [
      Loop.range "k" 0 5;
      Loop.make ~step:(-2) "j" ~lo:(c 9) ~hi:(c 1);
      Loop.make ~step:2 "i" ~lo:(c 0) ~lo_max:(Expr.sub k (c 1)) ~hi:(c 9)
        ~hi_min:(Expr.add k k);
    ];
  (* a [hi_min] clamp on j, the next-outer variable: one row per call *)
  check "innermost clamp on the next-outer variable"
    [
      Loop.range "k" 0 3;
      Loop.range "j" 0 6;
      Loop.make "i" ~lo:(c 0) ~hi:(c 9) ~hi_min:(Expr.add j (c 2));
    ]

(* Property: the fast interpreter and the naive trace agree on miss counts
   for random small programs. *)
let random_program =
  let open QCheck.Gen in
  let* n1 = int_range 2 6 in
  let* n2 = int_range 2 6 in
  let* off1 = int_range 0 1 in
  let* off2 = int_range 0 1 in
  let a = Array_decl.make "A" [ n1 + 2; n2 + 2 ] in
  let b = Array_decl.make "B" [ n1 + 2; n2 + 2 ] in
  let i = Expr.var "i" and j = Expr.var "j" in
  let refs =
    [
      Ref_.read_a "A" [ Expr.add i (Expr.const off1); j ];
      Ref_.read_a "B" [ i; Expr.add j (Expr.const off2) ];
      Ref_.write_a "A" [ i; j ];
    ]
  in
  let nest = Nest.make [ Loop.range "j" 0 (n2 - 1); Loop.range "i" 0 (n1 - 1) ] [ Stmt.make refs ] in
  return (Program.make "rand" [ a; b ] [ nest ])

let prop_fast_interp_matches_trace =
  QCheck.Test.make ~name:"fast interp = naive trace (miss counts)"
    ~count:(qcheck_count 100)
    (QCheck.make random_program)
    (fun p ->
      let layout = Layout.initial p in
      (* replay naive trace *)
      let h = Cs.Hierarchy.create small_machine.Cs.Machine.geometries in
      Trace_oracle.replay h (Trace_oracle.naive_trace layout p);
      let naive_stats = List.map Cs.Level.stats (Cs.Hierarchy.levels h) in
      let naive_misses = List.map (fun s -> s.Cs.Stats.misses) naive_stats in
      let naive_refs = (List.hd naive_stats).Cs.Stats.accesses in
      let naive_rates =
        List.map (Cs.Stats.miss_rate_vs ~total_refs:naive_refs) naive_stats
      in
      (* the walker through the reference sink, then through Fast_sim *)
      let reference = Interp.run ~backend:`Reference small_machine layout p in
      let fast = Interp.run ~backend:`Fast small_machine layout p in
      List.for_all
        (fun (r : Interp.result) ->
          r.Interp.misses = naive_misses
          && r.Interp.miss_rates = naive_rates
          && r.Interp.total_refs = naive_refs)
        [ reference; fast ])

let prop_pad_shifts_addresses =
  QCheck.Test.make ~name:"pad_before shifts all later bases equally" ~count:100
    QCheck.(pair (int_range 0 512) (int_range 0 512))
    (fun (p1, p2) ->
      let a = Array_decl.make "A" [ 16 ] in
      let b = Array_decl.make "B" [ 16 ] in
      let c = Array_decl.make "C" [ 16 ] in
      let l = Layout.of_arrays [ a; b; c ] in
      let l' = Layout.set_pad_before l "B" (p1 * 8) in
      let l'' = Layout.set_pad_before l' "C" (p2 * 8) in
      Layout.base l'' "B" - Layout.base l "B" = p1 * 8
      && Layout.base l'' "C" - Layout.base l "C" = (p1 + p2) * 8
      && Layout.base l'' "A" = Layout.base l "A")

let () =
  Alcotest.run "ir"
    [
      ( "expr",
        [
          Alcotest.test_case "algebra" `Quick test_expr_algebra;
          Alcotest.test_case "subst/shift/rename" `Quick test_expr_subst_shift;
          Alcotest.test_case "normal form" `Quick test_expr_equal_normal_form;
        ] );
      ( "layout",
        [
          Alcotest.test_case "dim strides" `Quick test_dim_strides;
          Alcotest.test_case "packed" `Quick test_layout_packed;
          Alcotest.test_case "pads" `Quick test_layout_pads;
          Alcotest.test_case "intra pad" `Quick test_layout_intra_pad;
          Alcotest.test_case "address expr" `Quick test_layout_address_expr;
          Alcotest.test_case "alignment" `Quick test_layout_alignment;
        ] );
      ( "loop",
        [
          Alcotest.test_case "basic" `Quick test_loop_basic;
          Alcotest.test_case "step" `Quick test_loop_step;
          Alcotest.test_case "negative step" `Quick test_loop_negative_step;
          Alcotest.test_case "clamp" `Quick test_loop_clamp;
        ] );
      ( "nest",
        [
          Alcotest.test_case "triangular iterations" `Quick test_nest_iterations_triangular;
          Alcotest.test_case "program counts" `Quick test_program_counts;
          Alcotest.test_case "duplicate array" `Quick test_program_duplicate_array;
        ] );
      ("validate", [ Alcotest.test_case "catches issues" `Quick test_validate_catches ]);
      ( "interp",
        [
          Alcotest.test_case "counts" `Quick test_interp_counts;
          Alcotest.test_case "trace order" `Quick test_interp_trace_order;
          Alcotest.test_case "gather" `Quick test_interp_gather;
          Alcotest.test_case "gather index outside its table" `Quick
            test_interp_gather_out_of_table;
        ] );
      ( "walker",
        [
          Alcotest.test_case "registry kernels = naive" `Quick test_walker_registry;
          Alcotest.test_case "registry kernels under PAD and MULTILVLPAD = naive" `Quick
            test_walker_padded_layouts;
          Alcotest.test_case "tiled matmul = naive" `Quick test_walker_tiled_matmul;
          Alcotest.test_case "downward and zero-depth = naive" `Quick
            test_walker_downward_and_flat;
          Alcotest.test_case "two-loop segments and one-row fallback = naive" `Quick
            test_walker_two_loop;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fast_interp_matches_trace; prop_pad_shifts_addresses ] );
    ]
