type token =
  | IDENT of string
  | INT of int
  | KW_PROGRAM
  | KW_ARRAY
  | KW_INT
  | KW_REAL
  | KW_STEPS
  | KW_FOR
  | KW_TO
  | KW_DOWNTO
  | KW_STEP
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | COMMA
  | ASSIGN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | EOF

type located = {
  token : token;
  line : int;
  col : int;
}

exception Error of string * int * int

let keyword_of = function
  | "program" -> Some KW_PROGRAM
  | "array" -> Some KW_ARRAY
  | "int" -> Some KW_INT
  | "real" -> Some KW_REAL
  | "steps" -> Some KW_STEPS
  | "for" -> Some KW_FOR
  | "to" -> Some KW_TO
  | "downto" -> Some KW_DOWNTO
  | "step" -> Some KW_STEP
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 and col = ref 1 in
  let pos = ref 0 in
  let emit token start_col = tokens := { token; line = !line; col = start_col } :: !tokens in
  let advance () =
    if !pos < n && src.[!pos] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col;
    incr pos
  in
  let skip_line () =
    while !pos < n && src.[!pos] <> '\n' do
      advance ()
    done
  in
  while !pos < n do
    let c = src.[!pos] in
    let start_col = !col in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '#' then skip_line ()
    else if c = '/' && !pos + 1 < n && src.[!pos + 1] = '/' then skip_line ()
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        advance ()
      done;
      let literal = String.sub src start (!pos - start) in
      match int_of_string_opt literal with
      | Some i -> emit (INT i) start_col
      | None ->
          raise (Error ("integer " ^ literal ^ " is out of range", !line, start_col))
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        advance ()
      done;
      let word = String.sub src start (!pos - start) in
      emit
        (match keyword_of (String.lowercase_ascii word) with
        | Some kw -> kw
        | None -> IDENT word)
        start_col
    end
    else begin
      let token =
        match c with
        | '(' -> LPAREN
        | ')' -> RPAREN
        | '{' -> LBRACE
        | '}' -> RBRACE
        | ',' -> COMMA
        | '=' -> ASSIGN
        | '+' -> PLUS
        | '-' -> MINUS
        | '*' -> STAR
        | '/' -> SLASH
        | other ->
            raise (Error (Printf.sprintf "unexpected character '%c'" other, !line, !col))
      in
      advance ();
      emit token start_col
    end
  done;
  List.rev ({ token = EOF; line = !line; col = !col } :: !tokens)

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier '%s'" s
  | INT i -> Printf.sprintf "integer %d" i
  | KW_PROGRAM -> "'program'"
  | KW_ARRAY -> "'array'"
  | KW_INT -> "'int'"
  | KW_REAL -> "'real'"
  | KW_STEPS -> "'steps'"
  | KW_FOR -> "'for'"
  | KW_TO -> "'to'"
  | KW_DOWNTO -> "'downto'"
  | KW_STEP -> "'step'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | COMMA -> "','"
  | ASSIGN -> "'='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | EOF -> "end of input"
