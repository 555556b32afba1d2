(* JSON values: a small hand-rolled parser and the one printer every JSON
   file of the project goes through (the repo deliberately has no JSON
   dependency). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | Some x -> fail "at %d: expected %c, found %c" st.pos c x
  | None -> fail "at %d: expected %c, found end of input" st.pos c

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "at %d: invalid literal" st.pos

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then fail "bad \\u escape";
                let hex = String.sub st.src st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape %S" hex
                in
                (* keep it simple: BMP code points as UTF-8 *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail "bad escape \\%c" c);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "at %d: bad number %S" start s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' -> String (parse_string st)
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((k, v) :: acc)
          | Some '}' ->
              advance st;
              List.rev ((k, v) :: acc)
          | _ -> fail "at %d: expected , or } in object" st.pos
        in
        Obj (members [])
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              advance st;
              List.rev (v :: acc)
          | _ -> fail "at %d: expected , or ] in array" st.pos
        in
        List (elements [])
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "at %d: unexpected character %c" st.pos c

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail "trailing garbage at %d" st.pos;
  v

(* --- printing -------------------------------------------------------------- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest of %.15g/%.17g that reads back as the same float, with a
   ".0" so that an integral float does not read back as an [Int]. *)
let float_literal f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Containers at [depth] < 2 put one member per line, indented by
   [depth + 1] steps; deeper ones stay on one line. *)
let rec print b depth v =
  let seq opening closing items item =
    Buffer.add_char b opening;
    if items <> [] then begin
      let broken = depth < 2 in
      let pad n = Buffer.add_string b (String.make (2 * n) ' ') in
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b (if broken then "," else ", ");
          if broken then begin
            Buffer.add_char b '\n';
            pad (depth + 1)
          end;
          item x)
        items;
      if broken then begin
        Buffer.add_char b '\n';
        pad depth
      end
    end;
    Buffer.add_char b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f when Float.is_finite f -> Buffer.add_string b (float_literal f)
  | Float _ -> Buffer.add_string b "null"
  | String s -> escape b s
  | List xs -> seq '[' ']' xs (print b (depth + 1))
  | Obj kvs ->
      seq '{' '}' kvs (fun (k, x) ->
          escape b k;
          Buffer.add_string b ": ";
          print b (depth + 1) x)

let to_string v =
  let b = Buffer.create 256 in
  print b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let fixed digits x =
  let scale = 10.0 ** float_of_int digits in
  Float (Float.round (x *. scale) /. scale)
