(* Chrome trace_event validation: the structural checks CI runs on every
   exported trace, over the parser in Json. *)

module Json = Json

type stats = {
  events : int;
  spans : int;
  counters : int;
  instants : int;
  tids : int;
}

let field obj k = match obj with Json.Obj kvs -> List.assoc_opt k kvs | _ -> None

let validate_json json =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let events =
    match json with
    | Json.List evs -> evs
    | Json.Obj _ -> (
        match field json "traceEvents" with
        | Some (Json.List evs) -> evs
        | Some _ ->
            err "traceEvents is not an array";
            []
        | None ->
            err "top-level object has no traceEvents array";
            [])
    | _ ->
        err "top level is neither an array nor an object";
        []
  in
  let spans = ref 0 and counters = ref 0 and instants = ref 0 in
  let last_ts = ref min_int in
  (* per (pid, tid): stack of open span names *)
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack_of key =
    match Hashtbl.find_opt stacks key with
    | Some s -> s
    | None ->
        let s = ref [] in
        Hashtbl.add stacks key s;
        s
  in
  List.iteri
    (fun i ev ->
      match ev with
      | Json.Obj _ -> (
          let ph =
            match field ev "ph" with
            | Some (Json.String p) -> p
            | _ ->
                err "event %d: missing string ph" i;
                ""
          in
          if ph <> "" && not (List.mem ph [ "B"; "E"; "i"; "I"; "C"; "M"; "X" ])
          then err "event %d: unknown ph %S" i ph;
          let name =
            match field ev "name" with Some (Json.String n) -> Some n | _ -> None
          in
          if List.mem ph [ "B"; "C"; "i"; "I" ] && name = None then
            err "event %d (ph %s): missing string name" i ph;
          let int_field k =
            match field ev k with
            | Some (Json.Int n) -> Some n
            | _ ->
                err "event %d: missing integer %s" i k;
                None
          in
          let ts = int_field "ts" in
          (match ts with
          | Some t ->
              if t < 0 then err "event %d: negative ts" i;
              if t < !last_ts then
                err "event %d: ts %d goes backwards (previous %d)" i t !last_ts
              else last_ts := t
          | None -> ());
          let pid = int_field "pid" and tid = int_field "tid" in
          (match (pid, tid) with
          | Some pid, Some tid -> (
              let stack = stack_of (pid, tid) in
              match ph with
              | "B" ->
                  stack := Option.value name ~default:"" :: !stack
              | "E" -> (
                  match !stack with
                  | [] -> err "event %d: E without matching B (tid %d)" i tid
                  | top :: rest ->
                      (match name with
                      | Some n when n <> top ->
                          err
                            "event %d: E name %S does not match open span %S \
                             (tid %d)"
                            i n top tid
                      | _ -> ());
                      stack := rest;
                      incr spans)
              | _ -> ())
          | _ -> ());
          match ph with
          | "C" -> (
              incr counters;
              match field ev "args" with
              | Some args -> (
                  match field args "value" with
                  | Some (Json.Int _ | Json.Float _) -> ()
                  | _ -> err "event %d: counter without numeric args.value" i)
              | None -> err "event %d: counter without args" i)
          | "i" | "I" -> incr instants
          | _ -> ())
      | _ -> err "event %d is not an object" i)
    events;
  Hashtbl.iter
    (fun (pid, tid) stack ->
      match !stack with
      | [] -> ()
      | open_spans ->
          err "pid %d tid %d: %d unclosed span(s), innermost %S" pid tid
            (List.length open_spans) (List.hd open_spans))
    stacks;
  match !errors with
  | [] ->
      Ok
        {
          events = List.length events;
          spans = !spans;
          counters = !counters;
          instants = !instants;
          tids = Hashtbl.length stacks;
        }
  | errs -> Error (List.rev errs)

let validate_string s =
  match Json.parse s with
  | json -> validate_json json
  | exception Json.Parse_error msg -> Error [ "JSON parse error: " ^ msg ]

let validate_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error [ msg ]
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      validate_string s
