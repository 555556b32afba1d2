(* Normal form: coefficient list sorted by variable name, no zero
   coefficients.  This makes structural equality ([=]) equality of the
   expressions. *)
type t = { coeffs : (string * int) list; const : int }

let normalize coeffs =
  coeffs
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let const n = { coeffs = []; const = n }

let term c v = { coeffs = normalize [ (v, c) ]; const = 0 }

let var v = term 1 v

let merge f a b =
  (* Merge two sorted coefficient lists, combining with [f]. *)
  let rec go a b =
    match (a, b) with
    | [], rest -> List.map (fun (v, c) -> (v, f 0 c)) rest
    | rest, [] -> List.map (fun (v, c) -> (v, f c 0)) rest
    | (va, ca) :: ta, (vb, cb) :: tb ->
        let cmp = String.compare va vb in
        if cmp = 0 then (va, f ca cb) :: go ta tb
        else if cmp < 0 then (va, f ca 0) :: go ta b
        else (vb, f 0 cb) :: go a tb
  in
  normalize (go a b)

let add a b = { coeffs = merge ( + ) a.coeffs b.coeffs; const = a.const + b.const }

let sub a b = { coeffs = merge ( - ) a.coeffs b.coeffs; const = a.const - b.const }

let scale k e =
  { coeffs = normalize (List.map (fun (v, c) -> (v, k * c)) e.coeffs); const = k * e.const }

let const_part e = e.const

let coeff e v = try List.assoc v e.coeffs with Not_found -> 0

let vars e = List.map fst e.coeffs

let is_const e = e.coeffs = []

let rename f e =
  { e with coeffs = normalize (List.map (fun (v, c) -> (f v, c)) e.coeffs) }

let subst v e' e =
  let c = coeff e v in
  if c = 0 then e
  else
    let without = { e with coeffs = List.remove_assoc v e.coeffs } in
    add without (scale c e')

let shift v d e = subst v (add (var v) (const d)) e

let eval env e =
  List.fold_left (fun acc (v, c) -> acc + (c * env v)) e.const e.coeffs

exception Overflow

(* [a + b] and [a * b], raising [Overflow] where they wrap *)
let ( +? ) a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise Overflow else s

let ( *? ) a b =
  let p = a * b in
  if a <> 0 && (p / a <> b || (a = -1 && b = min_int)) then raise Overflow else p

let range env e =
  let ends (lo, hi) (v, c) =
    let least, greatest = env v in
    let a = c *? least and b = c *? greatest in
    if c > 0 then (lo +? a, hi +? b) else (lo +? b, hi +? a)
  in
  try Some (List.fold_left ends (e.const, e.const) e.coeffs) with Overflow -> None
