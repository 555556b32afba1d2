type issue = {
  nest : int;
  message : string;
}

let pp_issue ppf i =
  if i.nest >= 0 then Format.fprintf ppf "nest %d: %s" i.nest i.message
  else Format.fprintf ppf "%s" i.message

(* Evaluate an expression at an iteration-space corner described by a
   choice function (true = upper bound) over loop variables; non-loop
   variables are an error surfaced by the caller. *)
let corner_value bounds choice e =
  Expr.eval
    (fun v ->
      match List.assoc_opt v bounds with
      | Some (lo, hi) -> if choice v then hi else lo
      | None -> raise Not_found)
    e

let check program =
  let issues = ref [] in
  let add nest message = issues := { nest; message } :: !issues in
  (* the out-of-range entries of each gather table against a dimension,
     in table order: a table that several references name (BUK's keys)
     is scanned once and its entries replayed per reference *)
  let scanned = ref [] in
  let out_of_range table dim =
    match List.find_opt (fun (t, d, _) -> t == table && d = dim) !scanned with
    | Some (_, _, bad) -> bad
    | None ->
        let bad = ref [] in
        for k = Array.length table - 1 downto 0 do
          let e = Array.unsafe_get table k in
          if e < 0 || e >= dim then bad := e :: !bad
        done;
        scanned := (table, dim, !bad) :: !scanned;
        !bad
  in
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun a -> Hashtbl.replace arrays a.Array_decl.name a)
    program.Program.arrays;
  List.iteri
    (fun ni nest ->
      (* Shadowing check and constant loop-bound collection. *)
      let seen = Hashtbl.create 8 in
      let bounds = ref [] in
      List.iter
        (fun l ->
          if Hashtbl.mem seen l.Loop.var then
            add ni (Printf.sprintf "loop variable %s shadowed" l.Loop.var);
          Hashtbl.replace seen l.Loop.var ();
          (* Bounds may reference outer variables; approximate by
             evaluating at outer corners when possible. *)
          let eval_range e =
            try
              let lo = corner_value !bounds (fun _ -> false) e in
              let hi = corner_value !bounds (fun _ -> true) e in
              Some (min lo hi, max lo hi)
            with Not_found -> None
          in
          let clamped base clamp combine =
            match (base, Option.map eval_range clamp) with
            | Some r, None -> Some r
            | Some (a, b), Some (Some (c, d)) -> Some (combine a c, combine b d)
            | _ -> None
          in
          let lo_range = clamped (eval_range l.Loop.lo) l.Loop.lo_max max in
          let hi_range = clamped (eval_range l.Loop.hi) l.Loop.hi_min min in
          match (lo_range, hi_range) with
          | Some (lo, lo'), Some (hi, hi') ->
              (* the widest run, from the first start to the last end, must
                 have a trip count ([Loop.trip_count]) that fits in an int *)
              let first, last = if l.Loop.step > 0 then (lo, hi') else (hi, lo') in
              let extent = last - first in
              if last > first && (extent < 0 || extent / abs l.Loop.step = max_int) then
                add ni
                  (Printf.sprintf "extent of loop %s does not fit in an int" l.Loop.var);
              let lo, hi = if l.Loop.step > 0 then (lo, hi') else (hi', lo) in
              bounds := (l.Loop.var, (min lo hi, max lo hi)) :: !bounds
          | _ -> add ni (Printf.sprintf "bounds of %s not analyzable" l.Loop.var))
        nest.Nest.loops;
      List.iter
        (fun r ->
          match Hashtbl.find_opt arrays r.Ref_.array with
          | None -> add ni (Printf.sprintf "array %s not declared" r.Ref_.array)
          | Some decl ->
              let dims = decl.Array_decl.dims in
              if List.length r.Ref_.subs <> List.length dims then
                add ni
                  (Printf.sprintf "%s: %d subscripts for %d dims" r.Ref_.array
                     (List.length r.Ref_.subs) (List.length dims))
              else
                List.iteri
                  (fun d (sub, dim) ->
                    match sub with
                    | Subscript.Gather { table; _ } ->
                        List.iter
                          (fun e ->
                            add ni
                              (Printf.sprintf "%s: gather table entry %d out of [0,%d)"
                                 r.Ref_.array e dim))
                          (out_of_range table dim)
                    | Subscript.Affine e -> (
                        List.iter
                          (fun var ->
                            if not (Hashtbl.mem seen var) then
                              add ni
                                (Printf.sprintf "%s: unbound variable %s in dim %d"
                                   r.Ref_.array var d))
                          (Expr.vars e);
                        (* Corner check: min/max of an affine expression
                           over a box is attained at corners chosen by
                           coefficient sign. *)
                        try
                          let lo =
                            corner_value !bounds (fun v -> Expr.coeff e v < 0) e
                          in
                          let hi =
                            corner_value !bounds (fun v -> Expr.coeff e v > 0) e
                          in
                          if lo < 0 || hi >= dim then
                            add ni
                              (Printf.sprintf
                                 "%s dim %d: subscript range [%d,%d] outside [0,%d)"
                                 r.Ref_.array d lo hi dim)
                        with Not_found -> ()))
                  (List.combine r.Ref_.subs dims))
        (Nest.refs nest))
    program.Program.nests;
  List.rev !issues

let check_exn program =
  match check program with
  | [] -> ()
  | issues ->
      let msgs = List.map (Format.asprintf "%a" pp_issue) issues in
      invalid_arg
        (Printf.sprintf "Validate: %s: %s" program.Program.name
           (String.concat "; " msgs))
