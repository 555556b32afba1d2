(* Reachability check: every lib/ unit and every exported value must be
   used by real code.

   Reads the typed trees dune writes with [dune build @check]:
   - the exported values of a library unit are the [val]s of its .cmti,
     submodules included, each named by its full path ([Obs.Buf.tid],
     [Build.( ++ )]) and keyed by where it is declared;
   - a use is an identifier in the .cmt of any unit under a user
     directory.  Its value description carries the location of the
     declaration it resolved to, so module aliases and opens resolve by
     themselves, and a module's uses of its own values point at its .ml,
     not at the .mli, and count for nothing;
   - a library unit is used when another unit under a user directory
     imports it;
   - an optional parameter of an exported value (an [Optional] arrow of
     its type) is supplied where an application whose head resolves to
     the declaration passes it anything but the [None] constructor: the
     type checker fills an omitted optional with a [None] of its own.
     A slot a partial application leaves open, and any occurrence of
     the value that is not an application head (it escapes with its
     optionals), count as supplies too.  The exception is a coercion
     to a type without the optionals ([~f:M.v]): the type checker
     binds the value to a ghost [let arg = M.v in fun eta -> arg
     ?x:None eta], which supplies nothing.

   A value (or [Module.value ?label]) listed in the allow file with a
   reason is exempt; a listed value that has a user, a listed parameter
   that is supplied, an entry that is gone, or an entry without a
   reason, is an error.  Prints one line per finding and exits 1 if
   there is any; prints nothing and exits 0 otherwise.  A source file under a scanned
   directory without its .cmt or .cmti is an error too, so the check
   cannot pass with nothing read.

     reachable.exe -C ROOT -allow FILE -lib DIR [-uses DIR]...

   Paths are relative to ROOT (the build tree's workspace root); the
   library directory counts as a user directory. *)

open Typedtree

let findings = ref []
let report fmt = Printf.ksprintf (fun s -> findings := s :: !findings) fmt

(* Declaration site of a value: file, line, column. *)
let key (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol)

let is_operator name =
  match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> false | _ -> true

let value_path prefix name =
  if is_operator name then Printf.sprintf "%s.( %s )" prefix name
  else prefix ^ "." ^ name

(* [lib/ir/build.mli] -> [Build] *)
let unit_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Source files under [dir], build directories (".objs") excluded. *)
let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name.[0] = '.' then [] else sources path
         else if Filename.check_suffix name ".ml"
                 || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

(* Every .cmt/.cmti under [dir], read. *)
let rec annots dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then annots path
         else if Filename.check_suffix name ".cmt"
                 || Filename.check_suffix name ".cmti"
         then [ Cmt_format.read_cmt path ]
         else [])

(* Typed trees of the hand-written units under [dir], keyed by source
   file; a source without its typed tree is a finding. *)
let units dir =
  let by_source = Hashtbl.create 64 in
  List.iter
    (fun (c : Cmt_format.cmt_infos) ->
      match c.cmt_sourcefile with
      | Some src -> Hashtbl.replace by_source src c
      | None -> ())
    (annots dir);
  List.filter_map
    (fun src ->
      match Hashtbl.find_opt by_source src with
      | Some c -> Some (src, c)
      | None ->
          report "%s: no .cmt/.cmti to read (dune build @check first)" src;
          None)
    (sources dir)

(* Labels of the optional arrows of a value's type. *)
let rec optionals ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optionals rest
  | Tarrow (_, _, rest, _) | Tpoly (rest, _) -> optionals rest
  | _ -> []

(* (full name, declaration key, optional labels) per exported value. *)
let rec exports prefix (sg : signature) =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          [ ( value_path prefix vd.val_name.txt,
              key vd.val_val.val_loc,
              optionals vd.val_val.val_type ) ]
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _ } ->
          exports (prefix ^ "." ^ name) sg
      | Tsig_module { md_type = { mty_desc = Tmty_alias _; _ }; _ } ->
          [] (* the aliased unit's own .cmti lists its values *)
      | Tsig_module _ | Tsig_recmodule _ | Tsig_include _ ->
          let file, line, _ = key item.sig_loc in
          report "%s:%d: cannot list the values of this item" file line;
          []
      | _ -> [])
    sg.sig_items

(* Declaration keys used; (key, label) of each supplied optional; keys
   of values that escape, all their optionals supplied. *)
let uses = Hashtbl.create 4096
let supplied = Hashtbl.create 1024
let escapes = Hashtbl.create 1024

(* Whether an application's argument to an optional parameter supplies
   it: a slot left open ([None]) does; the [None] constructor, the type
   checker's for an omitted optional or the caller's own, does not. *)
let supplies = function
  | Some { exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); _ } -> false
  | Some _ | None -> true

let use_iterator =
  let expr sub e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        let k = key vd.val_loc in
        Hashtbl.replace uses k ();
        List.iter
          (function
            | Asttypes.Optional l, a when supplies a -> Hashtbl.replace supplied (k, l) ()
            | _ -> ())
          args;
        List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
    | Texp_let
        ( Nonrecursive,
          [ { vb_pat = { pat_desc = Tpat_var _; pat_loc = { loc_ghost = true; _ }; _ };
              vb_expr = { exp_desc = Texp_ident (_, _, vd); _ };
              _ } ],
          body ) ->
        (* the coercion's [let arg = M.v in ...] *)
        Hashtbl.replace uses (key vd.val_loc) ();
        sub.expr sub body
    | Texp_ident (_, _, vd) ->
        Hashtbl.replace uses (key vd.val_loc) ();
        Hashtbl.replace escapes (key vd.val_loc) ()
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  { Tast_iterator.default_iterator with expr }

(* [Module.value  reason] or [Module.value ?label  reason] per line;
   '#' starts a comment.  Returns (line, name, reason) per entry, the
   name of a parameter entry being [Module.value ?label]. *)
let read_allow file =
  let ic = open_in file in
  let rec go n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (n + 1) acc
        else
          (* An operator's name, [( ++ )], holds spaces. *)
          let len = String.length line in
          let stop =
            match String.index_opt line ' ' with
            | None -> len
            | Some i when i > 0 && line.[i - 1] = '(' -> (
                match String.index_from_opt line i ')' with
                | Some j -> j + 1
                | None -> len)
            | Some i -> i
          in
          let stop =
            match String.index_from_opt line stop '?' with
            | Some q when String.trim (String.sub line stop (q - stop)) = "" ->
                Option.value (String.index_from_opt line q ' ') ~default:len
            | _ -> stop
          in
          let name = String.sub line 0 stop in
          let reason = String.trim (String.sub line stop (len - stop)) in
          go (n + 1) ((n, name, reason) :: acc)
  in
  go 1 []

let () =
  let root = ref "." and allow = ref "" and lib = ref "" and users = ref [] in
  Arg.parse
    [ ("-C", Arg.Set_string root, "DIR  workspace root the paths are relative to");
      ("-allow", Arg.Set_string allow, "FILE  exempt values, each with a reason");
      ("-lib", Arg.Set_string lib, "DIR  library whose units and values are checked");
      ("-uses", Arg.String (fun d -> users := !users @ [ d ]), "DIR  directory of users") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "reachable.exe -C ROOT -allow FILE -lib DIR [-uses DIR]...";
  if !allow = "" || !lib = "" then begin
    prerr_endline "reachable: -allow and -lib are required";
    exit 2
  end;
  Sys.chdir !root;
  let lib_units = units !lib in
  if lib_units = [] then report "%s: no library unit to check" !lib;
  let imported = Hashtbl.create 256 in
  List.iter
    (fun (_, (c : Cmt_format.cmt_infos)) ->
      (match c.cmt_annots with
      | Implementation str -> use_iterator.structure use_iterator str
      | _ -> ());
      List.iter
        (fun (m, _) -> if m <> c.cmt_modname then Hashtbl.replace imported m ())
        c.cmt_imports)
    (lib_units @ List.concat_map units !users);
  List.iter
    (fun (src, (c : Cmt_format.cmt_infos)) ->
      if Filename.check_suffix src ".ml" && not (Hashtbl.mem imported c.cmt_modname)
      then report "%s (%s): used only from test/ or not at all" (unit_name src) src)
    lib_units;
  let entries = read_allow !allow in
  let listed = Hashtbl.create 64 in
  List.iter
    (fun (n, name, reason) ->
      Hashtbl.replace listed name ();
      if reason = "" then report "%s:%d: %s has no reason" !allow n name)
    entries;
  let unused = Hashtbl.create 64 in
  List.iter
    (fun (src, (c : Cmt_format.cmt_infos)) ->
      match c.cmt_annots with
      | Interface sg ->
          List.iter
            (fun (name, ((file, line, _) as k), labels) ->
              if not (Hashtbl.mem uses k) then begin
                Hashtbl.replace unused name ();
                if not (Hashtbl.mem listed name) then
                  report "%s (%s:%d): used only from test/ or its own module"
                    name file line
              end;
              List.iter
                (fun l ->
                  let param = Printf.sprintf "%s ?%s" name l in
                  if not (Hashtbl.mem escapes k || Hashtbl.mem supplied (k, l))
                  then begin
                    Hashtbl.replace unused param ();
                    if not (Hashtbl.mem listed param) then
                      report "%s (%s:%d): supplied only from test/ or its own module"
                        param file line
                  end)
                labels)
            (exports (unit_name src) sg)
      | _ -> ())
    lib_units;
  List.iter
    (fun (_, name, _) ->
      if not (Hashtbl.mem unused name) then
        report "%s: listed in %s but used outside test/ (or gone)" name !allow)
    entries;
  List.iter print_endline (List.rev !findings);
  exit (if !findings = [] then 0 else 1)
