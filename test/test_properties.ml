(* Cross-cutting property tests: algebraic laws of the expression
   language, layout invariants, the LRU stack property, fusion-model
   bookkeeping invariants, and end-to-end conservation properties of the
   transformations. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module K = Mlc_kernels
module L = Locality

(* --- Expr laws ------------------------------------------------------------ *)

let gen_expr =
  let open QCheck.Gen in
  let var = oneofl [ "i"; "j"; "k" ] in
  let* terms = list_size (int_range 0 4) (pair (int_range (-9) 9) var) in
  let* const = int_range (-100) 100 in
  return
    (List.fold_left
       (fun acc (c, v) -> Expr.add acc (Expr.term c v))
       (Expr.const const) terms)

let arb_expr = QCheck.make gen_expr

let env v = match v with "i" -> 3 | "j" -> -7 | "k" -> 11 | _ -> 0

let prop_add_homomorphic =
  QCheck.Test.make ~name:"eval (a+b) = eval a + eval b" ~count:300
    (QCheck.pair arb_expr arb_expr)
    (fun (a, b) -> Expr.eval env (Expr.add a b) = Expr.eval env a + Expr.eval env b)

let prop_sub_inverse =
  QCheck.Test.make ~name:"a - a = 0" ~count:300 arb_expr (fun a ->
      let z = Expr.sub a a in
      Expr.is_const z && Expr.const_part z = 0)

let prop_scale_distributes =
  QCheck.Test.make ~name:"k*(a+b) = k*a + k*b" ~count:300
    QCheck.(triple (int_range (-5) 5) arb_expr arb_expr)
    (fun (k, a, b) ->
      Expr.scale k (Expr.add a b) = Expr.add (Expr.scale k a) (Expr.scale k b))

let prop_subst_eval_coherent =
  QCheck.Test.make ~name:"eval after subst = eval with substituted env" ~count:300
    (QCheck.pair arb_expr arb_expr)
    (fun (a, replacement) ->
      let substituted = Expr.subst "i" replacement a in
      let env' v = if v = "i" then Expr.eval env replacement else env v in
      Expr.eval env substituted = Expr.eval env' a)

let prop_shift_roundtrip =
  QCheck.Test.make ~name:"shift v d then shift v (-d) is identity" ~count:300
    (QCheck.pair arb_expr (QCheck.int_range (-20) 20))
    (fun (a, d) -> Expr.shift "j" (-d) (Expr.shift "j" d a) = a)

(* --- Layout invariants ------------------------------------------------------ *)

let gen_arrays =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* dims = list_repeat n (int_range 1 40) in
  return
    (List.mapi
       (fun i d -> Array_decl.make (Printf.sprintf "V%d" i) [ d; (d mod 7) + 1 ])
       dims)

let prop_arrays_never_overlap =
  QCheck.Test.make ~name:"arrays never overlap under random pads" ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair gen_arrays (list_size (int_range 0 6) (int_range 0 4096))))
    (fun (arrays, pads) ->
      let layout =
        List.fold_left
          (fun (layout, i) pad ->
            let names = Layout.array_names layout in
            match List.nth_opt names (i mod List.length names) with
            | Some v -> (Layout.add_pad_before layout v pad, i + 1)
            | None -> (layout, i + 1))
          (Layout.of_arrays arrays, 0)
          pads
        |> fst
      in
      let spans =
        List.map
          (fun a ->
            let b = Layout.base layout a.Array_decl.name in
            let padded = Layout.padded_decl layout a.Array_decl.name in
            (b, b + Array_decl.size_bytes padded))
          arrays
        |> List.sort compare
      in
      let rec disjoint = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && disjoint rest
        | _ -> true
      in
      disjoint spans)

let prop_address_in_bounds =
  QCheck.Test.make ~name:"element addresses stay inside the array span" ~count:200
    (QCheck.make
       QCheck.Gen.(triple (int_range 1 20) (int_range 1 20) (int_range 0 399)))
    (fun (d1, d2, raw) ->
      let a = Array_decl.make "A" [ d1; d2 ] in
      let layout = Layout.of_arrays [ a ] in
      let i = raw mod d1 and j = raw / d1 mod d2 in
      let addr =
        Layout.address_of_ref layout (fun _ -> 0)
          (Ref_.read_a "A" [ Expr.const i; Expr.const j ])
      in
      addr >= Layout.base layout "A"
      && addr + 8 <= Layout.base layout "A" + Array_decl.size_bytes a)

(* --- LRU stack property ------------------------------------------------------ *)

(* With the same set count, every hit in a k-way LRU cache is also a hit
   in a 2k-way LRU cache (inclusion property per set). *)
let prop_lru_stack =
  QCheck.Test.make ~name:"LRU stack property: k-way hits are 2k-way hits"
    ~count:(Qcheck_env.count 150)
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 8191))
    (fun addrs ->
      let sets = 4 and line = 32 in
      let mk assoc =
        Cs.Level.create { Cs.Level.size = sets * line * assoc; line; assoc }
      in
      let small = mk 2 and big = mk 4 in
      List.for_all
        (fun a ->
          let h1 = Cs.Level.access small ~write:false a in
          let h2 = Cs.Level.access big ~write:false a in
          (not h1) || h2)
        addrs)

(* An executable-specification oracle: a set-associative write-back LRU
   cache as a list of per-set MRU-ordered (line, dirty) lists, with its
   own counters.  A write marks its line dirty, evicting a dirty line
   counts a writeback, and without write-allocate a write miss installs
   nothing.  The production Level must agree with it on every access and
   on every counter, for random geometries and traces. *)
module Oracle = struct
  type t = {
    line : int;
    sets : int;
    assoc : int;
    write_allocate : bool;
    contents : (int * bool) list array;  (* MRU first *)
    stats : Cs.Stats.t;
  }

  let create ~line ~sets ~assoc ~write_allocate =
    { line; sets; assoc; write_allocate; contents = Array.make sets [];
      stats = Cs.Stats.create () }

  let access t (addr, write) =
    let l = addr / t.line in
    let s = l mod t.sets in
    let set = t.contents.(s) in
    let hit = List.mem_assoc l set in
    let st = t.stats in
    st.accesses <- st.accesses + 1;
    if write then st.writes <- st.writes + 1;
    if hit then st.hits <- st.hits + 1 else st.misses <- st.misses + 1;
    if hit || (not write) || t.write_allocate then begin
      let dirty = write || (hit && List.assoc l set) in
      let updated = (l, dirty) :: List.remove_assoc l set in
      t.contents.(s) <-
        (if List.length updated > t.assoc then begin
           if snd (List.nth updated t.assoc) then st.writebacks <- st.writebacks + 1;
           List.filteri (fun i _ -> i < t.assoc) updated
         end
         else updated)
    end;
    hit
end

let prop_level_matches_oracle =
  QCheck.Test.make ~name:"Level agrees with the executable LRU specification"
    ~count:(Qcheck_env.count 200)
    QCheck.(
      quad
        (pair (int_range 0 2) (int_range 0 2)) (* log sets, log assoc *)
        (int_range 0 1)                        (* log line scale *)
        bool                                   (* write-allocate *)
        (list_of_size Gen.(int_range 1 300) (pair (int_range 0 4096) bool)))
    (fun ((log_sets, log_assoc), log_line, write_allocate, accesses) ->
      let sets = 1 lsl log_sets and assoc = 1 lsl log_assoc in
      let line = 16 lsl log_line in
      let level =
        Cs.Level.create ~write_allocate { Cs.Level.size = sets * assoc * line; line; assoc }
      in
      let oracle = Oracle.create ~line ~sets ~assoc ~write_allocate in
      List.for_all
        (fun (a, write) -> Cs.Level.access level ~write a = Oracle.access oracle (a, write))
        accesses
      && Cs.Stats.equal (Cs.Level.stats level) oracle.Oracle.stats)

(* --- Fusion model bookkeeping ------------------------------------------------ *)

let prop_fusion_model_totals =
  QCheck.Test.make ~name:"fusion-model classes partition the affine refs" ~count:60
    QCheck.(int_range 50 700)
    (fun n ->
      let p = K.Paper_examples.figure2 n in
      let layout = Layout.initial p in
      let counts =
        An.Fusion_model.count layout ~l1_size:(16 * 1024) p.Program.nests
      in
      let total_refs =
        List.fold_left
          (fun acc nest ->
            acc
            + List.length (List.filter Ref_.is_affine (Nest.refs nest)))
          0 p.Program.nests
      in
      counts.An.Fusion_model.register + counts.An.Fusion_model.l1_hits
      + counts.An.Fusion_model.l2_refs + counts.An.Fusion_model.memory_refs
      = total_refs)

let prop_l2maxpad_keeps_l1_residues =
  QCheck.Test.make ~name:"L2MAXPAD keeps every base's residue mod S1" ~count:30
    QCheck.(int_range 100 600)
    (fun n ->
      let p = K.Livermore.jacobi n in
      let s1 = 16 * 1024 and l2_size = 512 * 1024 in
      let gp = L.Grouppad.apply ~size:s1 ~line:32 p (Layout.initial p) in
      let l2 = L.Maxpad.apply_l2 ~s1 ~l2_size gp in
      List.for_all
        (fun v -> Layout.base gp v mod s1 = Layout.base l2 v mod s1)
        (Layout.array_names gp))

(* --- Transformation conservation --------------------------------------------- *)

let prop_fusion_preserves_multiset =
  QCheck.Test.make ~name:"fusion preserves the access multiset" ~count:40
    QCheck.(pair (int_range 8 40) (int_range 0 2))
    (fun (n, shift) ->
      let open Build in
      let wa = arr "W" [ n; n ] and x = arr "X" [ n; n ] and y = arr "Y" [ n; n ] in
      let i = v "i" and j = v "j" in
      let hi = n - 3 in
      QCheck.assume (1 + shift <= hi);
      let n1 =
        nest [ loop "j" 1 hi; loop "i" 0 (n - 1) ]
          [ asn (w "W" [ i; j ]) [ r "X" [ i; j ] ] ]
      in
      let n2 =
        nest [ loop "j" 1 hi; loop "i" 0 (n - 1) ]
          [ asn (w "Y" [ i; j ]) [ r "W" [ i; j ] ] ]
      in
      let p = Program.make "fp" [ wa; x; y ] [ n1; n2 ] in
      let layout = Layout.initial p in
      match L.Fusion.fuse ~shift n1 n2 with
      | parts ->
          let p' = { p with Program.nests = parts } in
          Trace_oracle.sorted_trace layout p = Trace_oracle.sorted_trace layout p'
      | exception L.Fusion.Illegal _ -> QCheck.assume_fail ())

let prop_pad_never_creates_conflicts =
  QCheck.Test.make ~name:"PAD output has no severe conflicts (random sizes)"
    ~count:25
    QCheck.(int_range 64 600)
    (fun n ->
      let p = K.Livermore.jacobi n in
      let layout = L.Pad.apply ~size:(16 * 1024) ~line:32 p (Layout.initial p) in
      L.Pad.remaining_conflicts ~size:(16 * 1024) ~line:32 p layout = [])

let prop_interp_refs_match_static_count =
  QCheck.Test.make ~name:"simulated refs = static ref count" ~count:25
    QCheck.(int_range 16 128)
    (fun n ->
      let p = K.Livermore.expl n in
      let r = Interp.run Cs.Machine.ultrasparc (Layout.initial p) p in
      r.Interp.total_refs = Program.ref_count p)

(* --- Validate soundness ------------------------------------------------------ *)

(* A random nest of depth 1-3 over one array: each loop's bounds (and, on
   upward loops, optional clamps) are affine in the enclosing variables
   with coefficients in -2..2; steps are 1, 2, -1 or -2, so empty and
   downward loops occur; every subscript is affine in the nest's
   variables. *)
let gen_validate_case =
  let open QCheck.Gen in
  let affine ~consts ~coeffs vars =
    let* const = consts in
    let* coeffs = flatten_l (List.map (fun _ -> oneofl coeffs) vars) in
    return
      (List.fold_left2 (fun e v c -> Expr.add e (Expr.term c v)) (Expr.const const) vars coeffs)
  in
  let bound ~consts outer = affine ~consts ~coeffs:[ -2; -1; 0; 0; 0; 1; 2 ] outer in
  let rec loops outer = function
    | [] -> return []
    | v :: rest ->
        let* lo = bound ~consts:(int_range (-2) 3) outer in
        let* hi = bound ~consts:(int_range 1 8) outer in
        let* step = oneofl [ 1; 1; 1; 2; -1; -2 ] in
        let lo, hi = if step > 0 then (lo, hi) else (hi, lo) in
        let clamp consts = if step > 0 then opt ~ratio:0.25 (bound ~consts outer) else return None in
        let* lo_max = clamp (int_range (-2) 3) in
        let* hi_min = clamp (int_range 1 8) in
        let* rest = loops (outer @ [ v ]) rest in
        return (Loop.make ?lo_max ?hi_min ~step v ~lo ~hi :: rest)
  in
  let* depth = int_range 1 3 in
  let vars = List.init depth (Printf.sprintf "i%d") in
  let* loops = loops [] vars in
  let* dims = list_size (int_range 1 2) (int_range 1 32) in
  let sub =
    flatten_l
      (List.map (fun _ -> affine ~consts:(int_range 0 8) ~coeffs:[ -1; 0; 0; 1 ] vars) dims)
  in
  let* lhs = sub in
  let* rhs = list_size (int_range 0 2) sub in
  let open Build in
  return
    (program "v" [ arr "A" dims ]
       [ nest loops [ asn (w "A" lhs) (List.map (r "A") rhs) ] ])

let print_validate_case (p : Program.t) =
  let expr e =
    String.concat " + "
      (string_of_int (Expr.const_part e)
      :: List.map (fun v -> Printf.sprintf "%d*%s" (Expr.coeff e v) v) (Expr.vars e))
  in
  let nest = List.hd p.Program.nests in
  let clamp name = Option.fold ~none:"" ~some:(fun e -> Printf.sprintf " %s %s" name (expr e)) in
  String.concat "\n"
    (Printf.sprintf "A(%s)"
       (String.concat "," (List.map string_of_int (List.hd p.Program.arrays).Array_decl.dims))
    :: List.map
         (fun l ->
           Printf.sprintf "for %s = %s to %s step %d%s%s" l.Loop.var (expr l.Loop.lo)
             (expr l.Loop.hi) l.Loop.step (clamp "lo_max" l.Loop.lo_max)
             (clamp "hi_min" l.Loop.hi_min))
         nest.Nest.loops
    @ List.map Pretty.ref_to_string (Nest.refs nest))

(* Whenever [Validate.check] finds no issue, every iteration the walker's
   loops ({!Loop.iter}) run keeps every subscript inside its dimension. *)
let prop_validate_sound =
  QCheck.Test.make ~name:"Validate is sound" ~count:(Qcheck_env.count 500)
    (QCheck.make ~print:print_validate_case gen_validate_case)
    (fun p ->
      let nest = List.hd p.Program.nests in
      let dims = (List.hd p.Program.arrays).Array_decl.dims in
      let in_bounds env =
        List.for_all
          (fun r ->
            List.for_all2
              (fun s dim ->
                let x = Subscript.eval env s in
                0 <= x && x < dim)
              r.Ref_.subs dims)
          (Nest.refs nest)
      in
      let rec walk env = function
        | [] -> if not (in_bounds env) then raise Exit
        | l :: rest ->
            Loop.iter env l (fun x -> walk (fun v -> if v = l.Loop.var then x else env v) rest)
      in
      Validate.check p <> []
      || match walk (fun _ -> raise Not_found) nest.Nest.loops with
         | () -> true
         | exception Exit -> false)

let () =
  Alcotest.run "properties"
    [
      ( "expr",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_homomorphic;
            prop_sub_inverse;
            prop_scale_distributes;
            prop_subst_eval_coherent;
            prop_shift_roundtrip;
          ] );
      ( "layout",
        List.map QCheck_alcotest.to_alcotest
          [ prop_arrays_never_overlap; prop_address_in_bounds ] );
      ( "cache",
        List.map QCheck_alcotest.to_alcotest
          [ prop_lru_stack; prop_level_matches_oracle ] );
      ( "models",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fusion_model_totals; prop_l2maxpad_keeps_l1_residues ] );
      ( "transforms",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fusion_preserves_multiset;
            prop_pad_never_creates_conflicts;
            prop_interp_refs_match_static_count;
          ] );
      ("validate", [ QCheck_alcotest.to_alcotest prop_validate_sound ]);
    ]
