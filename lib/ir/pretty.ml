let expr_to_string e =
  (* the parser's affine syntax: c*v terms joined with +/-, constant last *)
  let terms =
    List.map
      (fun v ->
        let c = Expr.coeff e v in
        if c = 1 then (false, v)
        else if c = -1 then (true, v)
        else if c >= 0 then (false, Printf.sprintf "%d*%s" c v)
        else (true, Printf.sprintf "%d*%s" (-c) v))
      (Expr.vars e)
  in
  let const = Expr.const_part e in
  let parts =
    terms
    @ (if const > 0 then [ (false, string_of_int const) ]
       else if const < 0 then [ (true, string_of_int (-const)) ]
       else [])
  in
  match parts with
  | [] -> "0"
  | (neg, first) :: rest ->
      let buf = Buffer.create 32 in
      if neg then Buffer.add_string buf "0-";
      Buffer.add_string buf first;
      List.iter
        (fun (neg, s) ->
          Buffer.add_string buf (if neg then "-" else "+");
          Buffer.add_string buf s)
        rest;
      Buffer.contents buf

let ref_to_string r =
  Printf.sprintf "%s(%s)" r.Ref_.array
    (String.concat ","
       (List.map
          (fun s ->
            match s with
            | Subscript.Affine e -> expr_to_string e
            | Subscript.Gather _ ->
                invalid_arg "Pretty: gather subscripts have no source syntax")
          r.Ref_.subs))

let stmt_to_string s =
  let reads = Stmt.reads s in
  let writes = Stmt.writes s in
  (* The parser emits reads (in RHS order) then the write, so to keep the
     address stream identical the LHS must be the statement's final
     reference: the write (asn-built statements), or — for the paper's
     elided-LHS statements — the last read, which then reappears as a
     write at the same address. *)
  let lhs, rhs_refs =
    match (writes, reads) with
    | [ w ], _ -> (w, reads)
    | [], [ only ] -> (only, [])
    | [], _ :: _ ->
        let rev = List.rev reads in
        (List.hd rev, List.rev (List.tl rev))
    | _ -> invalid_arg "Pretty: statements must have at most one write"
  in
  let rhs =
    match rhs_refs with
    | [] -> "0"
    | rs -> String.concat " + " (List.map ref_to_string rs)
  in
  Printf.sprintf "%s = %s" (ref_to_string lhs) rhs

let walk ~open_loop ~stmt ~close_loop (n : Nest.t) =
  let depth = List.length n.Nest.loops in
  List.iteri open_loop n.Nest.loops;
  List.iter (stmt depth) n.Nest.body;
  for d = depth - 1 downto 0 do
    close_loop d
  done

let loop_header (l : Loop.t) =
  if l.Loop.lo_max <> None || l.Loop.hi_min <> None then
    invalid_arg "Pretty: clamped loops have no source syntax";
  let lo = expr_to_string l.Loop.lo and hi = expr_to_string l.Loop.hi in
  if l.Loop.step = 1 then Printf.sprintf "for %s = %s to %s {" l.Loop.var lo hi
  else if l.Loop.step > 1 then
    Printf.sprintf "for %s = %s to %s step %d {" l.Loop.var lo hi l.Loop.step
  else
    Printf.sprintf "for %s = %s downto %s%s {" l.Loop.var lo hi
      (if l.Loop.step = -1 then "" else Printf.sprintf " step %d" (-l.Loop.step))

let sanitize name =
  let cleaned =
    String.map
      (fun c ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        then c
        else '_')
      name
  in
  if cleaned = "" || (cleaned.[0] >= '0' && cleaned.[0] <= '9') then "p" ^ cleaned
  else cleaned

let program (p : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "program %s" (sanitize p.Program.name));
  if p.Program.time_steps > 1 then
    Buffer.add_string buf (Printf.sprintf " steps %d" p.Program.time_steps);
  Buffer.add_string buf "\n";
  List.iter
    (fun a ->
      Buffer.add_string buf
        (Printf.sprintf "array %s(%s)%s\n" a.Array_decl.name
           (String.concat "," (List.map string_of_int a.Array_decl.dims))
           (match a.Array_decl.elem_size with
           | 4 -> " int"
           | 8 -> ""
           | other -> invalid_arg (Printf.sprintf "Pretty: %d-byte elements" other))))
    p.Program.arrays;
  Buffer.add_string buf "\n";
  let line depth text =
    Buffer.add_string buf (String.make (depth * 2) ' ' ^ text ^ "\n")
  in
  List.iter
    (fun n ->
      walk n
        ~open_loop:(fun depth l -> line depth (loop_header l))
        ~stmt:(fun depth s -> line depth (stmt_to_string s))
        ~close_loop:(fun depth -> line depth "}");
      Buffer.add_string buf "\n")
    p.Program.nests;
  Buffer.contents buf
