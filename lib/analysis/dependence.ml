open Mlc_ir

type distance =
  | Independent
  | Distance of (string * int) list
  | Unknown

(* Decompose an affine expression as [±v + c] if it has that shape. *)
let single_var e =
  match Expr.vars e with
  | [] -> `Const (Expr.const_part e)
  | [ v ] ->
      let c = Expr.coeff e v in
      if c = 1 || c = -1 then `Var (v, c, Expr.const_part e) else `Other
  | _ -> `Other

let between r1 r2 =
  if r1.Ref_.array <> r2.Ref_.array then Independent
  else if not (Ref_.is_affine r1 && Ref_.is_affine r2) then Unknown
  else if List.length r1.Ref_.subs <> List.length r2.Ref_.subs then Unknown
  else begin
    (* Solve e1(I) = e2(I + d) per dimension, accumulating distances per
       variable; inconsistent constraints mean no constant distance. *)
    let constraints = Hashtbl.create 4 in
    let ok = ref true in
    let independent = ref false in
    List.iter2
      (fun s1 s2 ->
        if !ok then
          match (s1, s2) with
          | Subscript.Affine e1, Subscript.Affine e2 -> (
              match (single_var e1, single_var e2) with
              | `Const c1, `Const c2 -> if c1 <> c2 then independent := true
              | `Var (v1, a1, c1), `Var (v2, a2, c2) when v1 = v2 && a1 = a2 ->
                  (* a*(i) + c1 = a*(i + d) + c2  =>  d = (c1 - c2) / a *)
                  let d = (c1 - c2) * a1 in
                  (match Hashtbl.find_opt constraints v1 with
                  | Some d' when d' <> d -> ok := false
                  | _ -> Hashtbl.replace constraints v1 d)
              | _ -> ok := false)
          | _ -> ok := false)
      r1.Ref_.subs r2.Ref_.subs;
    if !independent then Independent
    else if not !ok then Unknown
    else Distance (Hashtbl.fold (fun v d acc -> (v, d) :: acc) constraints [])
  end

let cross_nest n1 n2 =
  let refs1 = Nest.refs n1 and refs2 = Nest.refs n2 in
  let out = ref [] in
  List.iteri
    (fun i1 r1 ->
      List.iteri
        (fun i2 r2 ->
          if Ref_.is_write r1 || Ref_.is_write r2 then
            match between r1 r2 with
            | Independent -> ()
            | d -> out := (i1, i2, d) :: !out)
        refs2)
    refs1;
  List.rev !out

(* One loop variable's distance inside a dependence.  A loop variable that
   appears in neither reference's subscripts is unconstrained: the same
   element is touched at {e every} value of that variable ('*'). *)
type component = Exact of int | Star

let component d var =
  match d with
  | Independent -> Exact 0
  | Unknown -> Star
  | Distance ds -> ( try Exact (List.assoc var ds) with Not_found -> Star)

let fusion_legal ~shift n1 n2 =
  match (n1.Nest.loops, n2.Nest.loops) with
  | l1 :: inner1, _ :: _ ->
      let outer1 = l1.Loop.var in
      let inner_vars = List.map (fun l -> l.Loop.var) inner1 in
      cross_nest n1 n2
      |> List.for_all (fun (_, _, d) ->
             match d with
             | Independent -> true
             | Unknown -> false
             | Distance _ -> (
                 (* The element r1 touches at outer iteration k is touched
                    by r2 at outer iteration k + delta; in the fused loop
                    r2's body runs [shift] iterations late, so the sink
                    executes at fused iteration k + delta + shift.  A '*'
                    outer component means some sink instance precedes the
                    source — never fusible. *)
                 match component d outer1 with
                 | Exact d1 ->
                     let delta = d1 + shift in
                     if delta > 0 then true
                     else if delta < 0 then false
                     else
                       (* Same fused outer iteration: body 1 precedes
                          body 2, so any inner distance ≥ 0 is safe. *)
                       List.for_all
                         (fun v ->
                           match component d v with
                           | Exact dv -> dv >= 0
                           | Star -> false)
                         inner_vars
                 | Star -> false))
  | _ -> false

let min_legal_shift ~max_shift n1 n2 =
  let rec go s =
    if s > max_shift then None
    else if fusion_legal ~shift:s n1 n2 then Some s
    else go (s + 1)
  in
  go 0

(* Sign of the leading non-zero component. *)
let lex_sign vec =
  let rec go = function
    | [] -> 0
    | 0 :: rest -> go rest
    | x :: _ -> if x > 0 then 1 else -1
  in
  go vec

let permutation_legal nest order =
  let refs = Nest.refs nest in
  let original_order = Nest.vars nest in
  let deps = ref [] in
  List.iteri
    (fun i1 r1 ->
      List.iteri
        (fun i2 r2 ->
          if i1 <= i2 && (Ref_.is_write r1 || Ref_.is_write r2) then
            match between r1 r2 with
            | Independent -> ()
            | d -> deps := d :: !deps)
        refs)
    refs;
  List.for_all
    (fun d ->
      match d with
      | Independent -> true
      | Unknown -> false
      | Distance _ ->
          (* Canonicalize so the constrained part reads earlier→later in
             the original order, then check the new order never lets an
             unconstrained ('*') component lead before a positive one.
             Scanning the new order outermost-in:
             - Exact 0: keep scanning;
             - Exact > 0: the dependence stays forward, legal;
             - Exact < 0: orientation flipped, illegal;
             - Star: legal only if it is the sole '*' and everything
               after it is Exact 0 (the dependence is carried entirely by
               that one loop, whose own order permutation preserves —
               the matmul-reduction case); otherwise conservative no. *)
          let comp v = component d v in
          let exact_vec vars =
            List.map (fun v -> match comp v with Exact x -> x | Star -> 0) vars
          in
          let sign = lex_sign (exact_vec original_order) in
          let flip = if sign < 0 then -1 else 1 in
          let rec scan = function
            | [] -> true
            | v :: rest -> (
                match comp v with
                | Exact 0 -> scan rest
                | Exact x -> flip * x > 0
                | Star ->
                    List.for_all
                      (fun v' ->
                        match comp v' with Exact 0 -> true | Exact _ | Star -> false)
                      rest)
          in
          scan order)
    !deps
