type issue = {
  nest : int;
  message : string;
}

let pp_issue ppf i =
  if i.nest >= 0 then Format.fprintf ppf "nest %d: %s" i.nest i.message
  else Format.fprintf ppf "%s" i.message

let check program =
  let issues = ref [] in
  let add nest fmt =
    Printf.ksprintf (fun message -> issues := { nest; message } :: !issues) fmt
  in
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
  List.iteri
    (fun ni nest ->
      (* Shadowing check, and each loop variable's values ({!Loop.values});
         [None] inside a loop that never runs or whose extent does not fit
         in an int, where nothing raises a range issue. *)
      let seen = Hashtbl.create 8 in
      let box = ref (Some []) in
      let range f e = Option.map (fun ranges -> f (fun v -> List.assoc v ranges) e) !box in
      List.iter
        (fun l ->
          let var = l.Loop.var in
          if Hashtbl.mem seen var then add ni "loop variable %s shadowed" var;
          Hashtbl.replace seen var ();
          match range Loop.values l with
          | None | Some Loop.Never -> box := None
          | Some (Loop.Between (lo, hi)) -> box := Option.map (List.cons (var, (lo, hi))) !box
          | Some Loop.Too_wide ->
              add ni "extent of loop %s does not fit in an int" var;
              box := None
          | exception Not_found -> add ni "bounds of %s not analyzable" var)
        nest.Nest.loops;
      List.iter
        (fun r ->
          let name = r.Ref_.array in
          match List.find_opt (fun a -> a.Array_decl.name = name) program.Program.arrays with
          | None -> add ni "array %s not declared" name
          | Some { Array_decl.dims; _ } when List.compare_lengths r.Ref_.subs dims <> 0 ->
              add ni "%s: %d subscripts for %d dims" name (List.length r.Ref_.subs)
                (List.length dims)
          | Some { Array_decl.dims; _ } ->
              List.iteri
                (fun d (sub, dim) ->
                  match sub with
                  | Subscript.Gather { table; _ } ->
                      if Option.is_some !box then
                        List.iter
                          (fun e -> add ni "%s: gather table entry %d out of [0,%d)" name e dim)
                          (out_of_range table dim)
                  | Subscript.Affine e -> (
                      List.iter
                        (fun var ->
                          if not (Hashtbl.mem seen var) then
                            add ni "%s: unbound variable %s in dim %d" name var d)
                        (Expr.vars e);
                      match range Expr.range e with
                      | None | (exception Not_found) -> ()
                      | Some (Some (lo, hi)) ->
                          if lo < 0 || hi >= dim then
                            add ni "%s dim %d: subscript range [%d,%d] outside [0,%d)" name d
                              lo hi dim
                      | Some None ->
                          add ni "%s dim %d: subscript range does not fit in an int" name d))
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
