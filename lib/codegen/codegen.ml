open Mlc_ir

(* [c1*v1<sep>c2*v2<sep>const] with the constant shifted by [shift]; a
   zero constant is dropped unless it is the whole sum. *)
let affine_sum ?(shift = 0) ~sep e =
  let terms =
    List.map
      (fun v ->
        let c = Expr.coeff e v in
        if c = 1 then v else Printf.sprintf "%d*%s" c v)
      (Expr.vars e)
  in
  let const = Expr.const_part e + shift in
  String.concat sep
    (terms @ if const <> 0 || terms = [] then [ string_of_int const ] else [])

(* [tables] names each gather table once (keyed physically), newest
   first: [prefix] and its index in order of first use. *)
let table_name prefix tables table =
  match List.assq_opt table !tables with
  | Some name -> name
  | None ->
      let name = prefix ^ string_of_int (List.length !tables) in
      tables := (table, name) :: !tables;
      name

let by_elem elem ~double ~int =
  match elem with
  | 8 -> double
  | 4 -> int
  | other -> invalid_arg (Printf.sprintf "Codegen: %d-byte elements unsupported" other)

(* What C and F77 spell differently; the walk and the statements are
   shared. *)
type dialect = {
  line : int -> string -> unit;  (* one statement at a loop depth *)
  loop_open : int -> Loop.t -> unit;
  loop_close : int -> unit;
  access : Ref_.t -> string;  (* the element a reference names *)
  acc : string;  (* the running checksum *)
  int_acc : string;  (* the checksum converted to an int *)
  to_double : string -> string;
  store : string -> string -> string;  (* [store lvalue value] *)
  accumulate : string -> string;  (* add a value to the checksum *)
}

(* Reads are summed into the checksum and writes store it, so no access
   can be dead-code-eliminated. *)
let reference d layout r =
  let lvalue = d.access r in
  let elem = (Layout.padded_decl layout r.Ref_.array).Array_decl.elem_size in
  if Ref_.is_write r then d.store lvalue (by_elem elem ~double:d.acc ~int:d.int_acc)
  else d.accumulate (by_elem elem ~double:lvalue ~int:(d.to_double lvalue))

let nest d layout n =
  Pretty.walk n ~open_loop:d.loop_open ~close_loop:d.loop_close
    ~stmt:(fun depth s ->
      List.iter (fun r -> d.line depth (reference d layout r)) s.Stmt.refs)

(* --- C ------------------------------------------------------------------- *)

let c_expr e = "(" ^ affine_sum ~sep:" + " e ^ ")"

let c_dialect buf tables layout =
  (* loops open at depth 0 inside the time-step loop of [mlc_run] *)
  let line depth text =
    Buffer.add_string buf (String.make (2 + (depth * 4)) ' ' ^ text ^ "\n")
  in
  let loop_open depth (l : Loop.t) =
    let line text = line depth text in
    let v = l.Loop.var in
    line "{";
    (* an upward loop's bounds, each clamped when it has one *)
    let bound name e clamp cmp =
      line (Printf.sprintf "  long mlc_%s_%s = %s;" name v (c_expr e));
      Option.iter
        (fun c ->
          line
            (Printf.sprintf "  { long c = %s; if (c %s mlc_%s_%s) mlc_%s_%s = c; }"
               (c_expr c) cmp name v name v))
        clamp
    in
    if l.Loop.step > 0 then begin
      bound "lo" l.Loop.lo l.Loop.lo_max ">";
      bound "hi" l.Loop.hi l.Loop.hi_min "<";
      line
        (Printf.sprintf "  for (long %s = mlc_lo_%s; %s <= mlc_hi_%s; %s += %d) {" v v v
           v v l.Loop.step)
    end
    else
      line
        (Printf.sprintf "  for (long %s = %s; %s >= %s; %s += %d) {" v (c_expr l.Loop.lo)
           v (c_expr l.Loop.hi) v l.Loop.step)
  in
  let loop_close depth =
    line depth "  }";
    line depth "}"
  in
  (* the byte address of a reference in the flat heap *)
  let access r =
    let decl = Layout.padded_decl layout r.Ref_.array in
    let dim_terms =
      List.map2
        (fun sub stride ->
          let bytes = stride * decl.Array_decl.elem_size in
          match sub with
          | Subscript.Affine e -> Printf.sprintf "%d*%s" bytes (c_expr e)
          | Subscript.Gather { table; index } ->
              Printf.sprintf "%d*%s[%s]" bytes
                (table_name "mlc_table_" tables table)
                (c_expr index))
        r.Ref_.subs (Array_decl.dim_strides decl)
    in
    Printf.sprintf "*(%s*)(mlc_heap + %s)"
      (by_elem decl.Array_decl.elem_size ~double:"double" ~int:"int")
      (String.concat " + "
         (string_of_int (Layout.base layout r.Ref_.array) :: dim_terms))
  in
  {
    line;
    loop_open;
    loop_close;
    access;
    acc = "mlc_acc";
    int_acc = "(int)mlc_acc";
    to_double = (fun s -> "(double)" ^ s);
    store = Printf.sprintf "%s = %s;";
    accumulate = Printf.sprintf "mlc_acc += %s;";
  }

let emit_c ?(repeat = 1) layout program =
  let buf = Buffer.create 8192 in
  let tables = ref [] in
  (* the body first, so the gather tables it uses are known *)
  let body = Buffer.create 8192 in
  let d = c_dialect body tables layout in
  List.iteri
    (fun i n ->
      Buffer.add_string body (Printf.sprintf "  /* nest %d */\n" i);
      nest d layout n)
    program.Program.nests;
  Buffer.add_string buf
    (Printf.sprintf
       "/* Generated by mlcache codegen from program '%s'.\n\
       \   Reproduces the memory-reference stream under the chosen layout\n\
       \   (pads are physically realized in one flat allocation). */\n\
        #include <stdio.h>\n\
        #include <string.h>\n\
        #include <time.h>\n\n\
        static unsigned char mlc_heap[%dUL];\n\
        static double mlc_acc;\n\n"
       program.Program.name
       (max 8 (Layout.total_bytes layout)));
  List.iter
    (fun (table, name) ->
      Buffer.add_string buf
        (Printf.sprintf "static const int %s[%d] = {" name (Array.length table));
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          if i mod 16 = 0 then Buffer.add_string buf "\n  ";
          Buffer.add_string buf (string_of_int x))
        table;
      Buffer.add_string buf "\n};\n\n")
    (List.rev !tables);
  Buffer.add_string buf "static void mlc_run(void) {\n";
  Buffer.add_string buf
    (Printf.sprintf "  for (long mlc_step = 0; mlc_step < %d; mlc_step++) {\n"
       program.Program.time_steps);
  Buffer.add_buffer buf body;
  Buffer.add_string buf "  }\n}\n\n";
  Buffer.add_string buf
    (Printf.sprintf
       "int main(void) {\n\
       \  memset(mlc_heap, 0, sizeof mlc_heap);\n\
       \  struct timespec t0, t1;\n\
       \  clock_gettime(CLOCK_MONOTONIC, &t0);\n\
       \  for (int r = 0; r < %d; r++) mlc_run();\n\
       \  clock_gettime(CLOCK_MONOTONIC, &t1);\n\
       \  double secs = (t1.tv_sec - t0.tv_sec) + 1e-9 * (t1.tv_nsec - t0.tv_nsec);\n\
       \  printf(\"checksum %%.6e\\n\", mlc_acc);\n\
       \  printf(\"seconds %%.6f\\n\", secs);\n\
       \  return 0;\n\
        }\n"
       repeat);
  Buffer.contents buf

(* --- Fortran 77 ------------------------------------------------------------ *)

(* F77 DATA statements do not scale to megabyte tables. *)
let max_table = 4096

(* Fixed form: statements start at column 7; continuation lines carry a
   character in column 6; nothing beyond column 72. *)
let f77_line buf text =
  let rec go text first =
    let lead = if first then "      " else "     & " in
    let body_width = 72 - String.length lead in
    if String.length text <= body_width then Buffer.add_string buf (lead ^ text ^ "\n")
    else begin
      Buffer.add_string buf (lead ^ String.sub text 0 body_width ^ "\n");
      go (String.sub text body_width (String.length text - body_width)) false
    end
  in
  go text true

let f77_dialect buf tables =
  (* subscripts shift the IR's 0-based indices to Fortran's 1-based ones;
     loop bounds are iteration values and are not shifted *)
  let sub = function
    | Subscript.Affine e -> affine_sum ~shift:1 ~sep:"+" e
    | Subscript.Gather { table; index } ->
        if Array.length table > max_table then
          invalid_arg
            (Printf.sprintf "Codegen: gather table of %d entries exceeds %d"
               (Array.length table) max_table);
        (* table entries are 0-based element indices: +1 for Fortran *)
        Printf.sprintf "%s(%s)+1" (table_name "MLCTB" tables table)
          (affine_sum ~shift:1 ~sep:"+" index)
  in
  let loop_open _ (l : Loop.t) =
    let b = affine_sum ~sep:"+" in
    let clamp f bound = function
      | None -> b bound
      | Some c -> Printf.sprintf "%s(%s,%s)" f (b bound) (b c)
    in
    f77_line buf
      (Printf.sprintf "DO %s = %s, %s%s"
         (String.uppercase_ascii l.Loop.var)
         (clamp "MAX" l.Loop.lo l.Loop.lo_max)
         (clamp "MIN" l.Loop.hi l.Loop.hi_min)
         (if l.Loop.step = 1 then "" else Printf.sprintf ", %d" l.Loop.step))
  in
  {
    line = (fun _ text -> f77_line buf text);
    loop_open;
    loop_close = (fun _ -> f77_line buf "ENDDO");
    access =
      (fun r ->
        Printf.sprintf "%s(%s)" r.Ref_.array
          (String.concat "," (List.map sub r.Ref_.subs)));
    acc = "MLCACC";
    int_acc = "INT(MLCACC)";
    to_double = Printf.sprintf "DBLE(%s)";
    store = Printf.sprintf "%s = %s";
    accumulate = Printf.sprintf "MLCACC = MLCACC + %s";
  }

let emit_f77 layout program =
  let buf = Buffer.create 8192 in
  let tables = ref [] in
  (* the body first, so the gather tables it uses are known *)
  let body = Buffer.create 8192 in
  let d = f77_dialect body tables in
  f77_line body (Printf.sprintf "DO MLCSTP = 1, %d" program.Program.time_steps);
  List.iteri
    (fun i n ->
      Buffer.add_string body (Printf.sprintf "*     nest %d\n" i);
      nest d layout n)
    program.Program.nests;
  f77_line body "ENDDO";
  (* the declarations realize the layout in one COMMON block *)
  Buffer.add_string buf
    (Printf.sprintf
       "*     Generated by mlcache codegen from program '%s'.\n\
        *     The COMMON block realizes the optimized layout: PAD arrays\n\
        *     are the inter-variable pads, padded leading dimensions the\n\
        *     intra-variable (column) pads.\n"
       program.Program.name);
  f77_line buf "PROGRAM MLCGEN";
  let common_members = ref [] in
  List.iteri
    (fun idx a ->
      let name = a.Array_decl.name in
      let pad = Layout.pad_before layout name in
      if pad > 0 then begin
        if pad mod 8 <> 0 then
          invalid_arg (Printf.sprintf "Codegen: pad of %dB not 8-byte aligned" pad);
        let pname = Printf.sprintf "MLCPD%d" idx in
        f77_line buf (Printf.sprintf "DOUBLE PRECISION %s(%d)" pname (pad / 8));
        common_members := pname :: !common_members
      end;
      f77_line buf
        (Printf.sprintf "%s %s(%s)"
           (by_elem a.Array_decl.elem_size ~double:"DOUBLE PRECISION" ~int:"INTEGER")
           name
           (String.concat ","
              (List.map string_of_int (Layout.padded_decl layout name).Array_decl.dims)));
      common_members := name :: !common_members)
    program.Program.arrays;
  f77_line buf ("COMMON /MLC/ " ^ String.concat ", " (List.rev !common_members));
  f77_line buf "DOUBLE PRECISION MLCACC";
  f77_line buf "INTEGER MLCSTP, MLCI";
  List.concat_map Nest.vars program.Program.nests
  |> List.map String.uppercase_ascii
  |> List.sort_uniq compare
  |> List.iter (fun v -> f77_line buf ("INTEGER " ^ v));
  List.iter
    (fun (table, name) ->
      f77_line buf (Printf.sprintf "INTEGER %s(%d)" name (Array.length table));
      (* DATA statements of entries [i..], each ending with the entry
         that takes it past 400 characters *)
      let rec data i =
        if i < Array.length table then begin
          let chunk = Buffer.create 512 and j = ref i in
          while Buffer.length chunk <= 400 && !j < Array.length table do
            if !j > i then Buffer.add_char chunk ',';
            Buffer.add_string chunk (string_of_int table.(!j));
            incr j
          done;
          f77_line buf
            (Printf.sprintf "DATA (%s(MLCI), MLCI=%d,%d) / %s /" name (i + 1) !j
               (Buffer.contents chunk));
          data !j
        end
      in
      data 0)
    (List.rev !tables);
  f77_line buf "MLCACC = 0.0D0";
  Buffer.add_buffer buf body;
  f77_line buf "PRINT *, 'checksum', MLCACC";
  f77_line buf "END";
  Buffer.contents buf
