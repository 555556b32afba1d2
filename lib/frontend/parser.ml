open Mlc_ir

exception Error of string * int * int

type state = {
  mutable tokens : Lexer.located list;
}

let peek st =
  match st.tokens with
  | t :: _ -> t
  | [] -> assert false (* EOF is always last *)

let advance st =
  match st.tokens with
  | _ :: rest when rest <> [] -> st.tokens <- rest
  | _ -> ()

let fail_at (t : Lexer.located) msg = raise (Error (msg, t.Lexer.line, t.Lexer.col))

let expect st token =
  let t = peek st in
  if t.Lexer.token = token then advance st
  else
    fail_at t
      (Printf.sprintf "expected %s but found %s" (Lexer.token_to_string token)
         (Lexer.token_to_string t.Lexer.token))

let expect_ident st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.IDENT s ->
      advance st;
      s
  | other -> fail_at t ("expected an identifier but found " ^ Lexer.token_to_string other)

let expect_int st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.INT i ->
      advance st;
      i
  | other -> fail_at t ("expected an integer but found " ^ Lexer.token_to_string other)

(* --- affine expressions -------------------------------------------------- *)

(* aexpr := ['-'] aterm (('+'|'-') aterm)*
   aterm := INT ['*' IDENT] | IDENT ['*' INT] *)
let parse_aterm st =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.INT c -> (
      advance st;
      match (peek st).Lexer.token with
      | Lexer.STAR ->
          advance st;
          let v = expect_ident st in
          Expr.term c v
      | _ -> Expr.const c)
  | Lexer.IDENT v -> (
      advance st;
      match (peek st).Lexer.token with
      | Lexer.STAR -> (
          advance st;
          let t2 = peek st in
          match t2.Lexer.token with
          | Lexer.INT c ->
              advance st;
              Expr.term c v
          | other ->
              fail_at t2
                ("expected an integer coefficient but found "
                ^ Lexer.token_to_string other))
      | _ -> Expr.var v)
  | other ->
      fail_at t ("expected an affine term but found " ^ Lexer.token_to_string other)

let parse_aexpr st =
  let first =
    match (peek st).Lexer.token with
    | Lexer.MINUS ->
        advance st;
        Expr.scale (-1) (parse_aterm st)
    | _ -> parse_aterm st
  in
  let rec go acc =
    match (peek st).Lexer.token with
    | Lexer.PLUS ->
        advance st;
        go (Expr.add acc (parse_aterm st))
    | Lexer.MINUS ->
        advance st;
        go (Expr.sub acc (parse_aterm st))
    | _ -> acc
  in
  go first

let parse_subscripts st =
  expect st Lexer.LPAREN;
  let rec go acc =
    let e = parse_aexpr st in
    match (peek st).Lexer.token with
    | Lexer.COMMA ->
        advance st;
        go (e :: acc)
    | _ ->
        expect st Lexer.RPAREN;
        List.rev (e :: acc)
  in
  go []

(* --- full expressions (RHS) ---------------------------------------------- *)

(* Walks the expression, collecting array reads and counting operators as
   flops.  Bare identifiers are loop variables or register scalars: no
   memory reference either way. *)
let rec parse_factor st ~arrays reads flops =
  let t = peek st in
  match t.Lexer.token with
  | Lexer.INT _ ->
      advance st
  | Lexer.MINUS ->
      advance st;
      incr flops;
      parse_factor st ~arrays reads flops
  | Lexer.LPAREN ->
      advance st;
      parse_expr st ~arrays reads flops;
      expect st Lexer.RPAREN
  | Lexer.IDENT name -> (
      advance st;
      match (peek st).Lexer.token with
      | Lexer.LPAREN ->
          if not (List.mem name arrays) then
            fail_at t (Printf.sprintf "array %s is not declared" name);
          let subs = parse_subscripts st in
          reads := Ref_.read_a name subs :: !reads
      | _ -> (* scalar or loop variable: register *) ())
  | other ->
      fail_at t ("expected an expression but found " ^ Lexer.token_to_string other)

and parse_term st ~arrays reads flops =
  parse_factor st ~arrays reads flops;
  let rec go () =
    match (peek st).Lexer.token with
    | Lexer.STAR | Lexer.SLASH ->
        advance st;
        incr flops;
        parse_factor st ~arrays reads flops;
        go ()
    | _ -> ()
  in
  go ()

and parse_expr st ~arrays reads flops =
  parse_term st ~arrays reads flops;
  let rec go () =
    match (peek st).Lexer.token with
    | Lexer.PLUS | Lexer.MINUS ->
        advance st;
        incr flops;
        parse_term st ~arrays reads flops;
        go ()
    | _ -> ()
  in
  go ()

let parse_stmt st ~arrays =
  let t = peek st in
  let name = expect_ident st in
  if not (List.mem name arrays) then
    fail_at t (Printf.sprintf "array %s is not declared" name);
  let subs = parse_subscripts st in
  expect st Lexer.ASSIGN;
  let reads = ref [] in
  let flops = ref 0 in
  parse_expr st ~arrays reads flops;
  Stmt.make ~flops:!flops (List.rev !reads @ [ Ref_.write_a name subs ])

(* --- loops ----------------------------------------------------------------- *)

let rec parse_for st ~arrays =
  expect st Lexer.KW_FOR;
  let var = expect_ident st in
  expect st Lexer.ASSIGN;
  let start = parse_aexpr st in
  let direction =
    let t = peek st in
    match t.Lexer.token with
    | Lexer.KW_TO ->
        advance st;
        `Up
    | Lexer.KW_DOWNTO ->
        advance st;
        `Down
    | other -> fail_at t ("expected 'to' or 'downto' but found " ^ Lexer.token_to_string other)
  in
  let stop = parse_aexpr st in
  let step =
    match (peek st).Lexer.token with
    | Lexer.KW_STEP ->
        advance st;
        expect_int st
    | _ -> 1
  in
  if step <= 0 then fail_at (peek st) "step must be positive (use downto)";
  let step = match direction with `Up -> step | `Down -> -step in
  expect st Lexer.LBRACE;
  let loop = Loop.make ~step var ~lo:start ~hi:stop in
  let result =
    match (peek st).Lexer.token with
    | Lexer.KW_FOR ->
        (* perfect nesting: exactly one inner loop *)
        let inner = parse_for st ~arrays in
        { inner with Nest.loops = loop :: inner.Nest.loops }
    | _ ->
        let rec stmts acc =
          match (peek st).Lexer.token with
          | Lexer.RBRACE -> List.rev acc
          | _ -> stmts (parse_stmt st ~arrays :: acc)
        in
        let body = stmts [] in
        if body = [] then fail_at (peek st) "empty loop body";
        Nest.make [ loop ] body
  in
  expect st Lexer.RBRACE;
  result

(* --- program ------------------------------------------------------------- *)

let parse_program st =
  expect st Lexer.KW_PROGRAM;
  let name = expect_ident st in
  let time_steps =
    match (peek st).Lexer.token with
    | Lexer.KW_STEPS ->
        advance st;
        let t = peek st in
        let steps = expect_int st in
        if steps < 1 then fail_at t (Printf.sprintf "steps %d is not positive" steps);
        steps
    | _ -> 1
  in
  let rec decls acc =
    match (peek st).Lexer.token with
    | Lexer.KW_ARRAY ->
        advance st;
        let name_token = peek st in
        let arr_name = expect_ident st in
        if List.exists (fun a -> a.Array_decl.name = arr_name) acc then
          fail_at name_token (Printf.sprintf "array %s is declared twice" arr_name);
        expect st Lexer.LPAREN;
        let rec dims acc =
          let t = peek st in
          let d = expect_int st in
          if d <= 0 then
            fail_at t (Printf.sprintf "extent %d of array %s is not positive" d arr_name);
          match (peek st).Lexer.token with
          | Lexer.COMMA ->
              advance st;
              dims (d :: acc)
          | _ ->
              expect st Lexer.RPAREN;
              List.rev (d :: acc)
        in
        let dims = dims [] in
        let elem_size =
          match (peek st).Lexer.token with
          | Lexer.KW_INT ->
              advance st;
              4
          | Lexer.KW_REAL ->
              advance st;
              8
          | _ -> 8
        in
        (* the array, and every base after it, must have an address *)
        let acc =
          try
            let decl = Array_decl.make ~elem_size arr_name dims in
            ignore (Layout.of_arrays (List.rev (decl :: acc)));
            decl :: acc
          with Invalid_argument _ ->
            fail_at name_token (Printf.sprintf "array %s does not fit in memory" arr_name)
        in
        decls acc
    | _ -> List.rev acc
  in
  let arrays = decls [] in
  let array_names = List.map (fun a -> a.Array_decl.name) arrays in
  (* each nest with its [for] token, where its Validate issues point *)
  let rec nests acc =
    let t = peek st in
    match t.Lexer.token with
    | Lexer.KW_FOR -> nests ((t, parse_for st ~arrays:array_names) :: acc)
    | Lexer.EOF -> List.rev acc
    | other ->
        fail_at (peek st)
          ("expected 'for' or end of input but found " ^ Lexer.token_to_string other)
  in
  let nests = nests [] in
  if nests = [] then fail_at (peek st) "program has no loop nests";
  (Program.make ~time_steps name arrays (List.map snd nests), List.map fst nests)

let parse src =
  let tokens = try Lexer.tokenize src with Lexer.Error (m, l, c) -> raise (Error (m, l, c)) in
  let st = { tokens } in
  let program, fors = parse_program st in
  (match Validate.check program with
  | [] -> ()
  | first :: _ as issues ->
      (* at the first offending nest (a global issue: the first nest) *)
      fail_at
        (List.nth fors (max 0 first.Validate.nest))
        ("invalid program: "
        ^ String.concat "; " (List.map (Format.asprintf "%a" Validate.pp_issue) issues)));
  program

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse src
