(** Tokenizer for the kernel language (see {!Parser} for the grammar). *)

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
  | ASSIGN  (** [=] *)
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

exception Error of string * int * int  (** message, line, col *)

(** Tokenize a whole source string.  Comments run from [#] or [//] to end
    of line.
    @raise Error on an unexpected character or an integer literal beyond
    the [int] range. *)
val tokenize : string -> located list

val token_to_string : token -> string
