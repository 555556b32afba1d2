type kind = Crash | Slow of float | Corrupt

type rule = { pattern : string; kind : kind }

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected what -> Some (Printf.sprintf "Fault.Injected(%s)" what)
    | _ -> None)

(* ----------------------------------------------------------------- *)
(* Rules                                                              *)
(* ----------------------------------------------------------------- *)

let parse s =
  let bad fmt = Printf.ksprintf (fun m -> invalid_arg ("Fault.parse: " ^ m)) fmt in
  String.split_on_char ';' s
  |> List.filter (fun r -> String.trim r <> "")
  |> List.map (fun r ->
         let r = String.trim r in
         match String.split_on_char ':' r with
         | [ "crash"; pattern ] when pattern <> "" -> { pattern; kind = Crash }
         | [ "corrupt"; pattern ] when pattern <> "" -> { pattern; kind = Corrupt }
         | [ "slow"; pattern; ms ] when pattern <> "" -> (
             match float_of_string_opt ms with
             | Some ms when ms >= 0.0 -> { pattern; kind = Slow (ms /. 1000.0) }
             | _ -> bad "slow wants milliseconds, got %S" ms)
         | _ -> bad "unknown rule %S (crash:PAT | slow:PAT:MS | corrupt:PAT)" r)

(* The installed rules.  None = not yet initialized from MLC_FAULTS.
   Multi-domain safe: the ref is written before any pool spawns (either
   by set_rules in a test or by the first inject in the main domain),
   and a racy double-parse of the same env var is idempotent. *)
let installed : rule list option ref = ref None

let set_rules rs = installed := Some rs

let rules () =
  match !installed with
  | Some rs -> rs
  | None ->
      let rs =
        match Sys.getenv_opt "MLC_FAULTS" with
        | None | Some "" -> []
        | Some s -> (
            try parse s
            with Invalid_argument m ->
              Printf.eprintf "mlc: ignoring MLC_FAULTS: %s\n%!" m;
              [])
      in
      installed := Some rs;
      rs

let contains ~pattern s =
  let lp = String.length pattern and ls = String.length s in
  let rec at i = i + lp <= ls && (String.sub s i lp = pattern || at (i + 1)) in
  lp = 0 || at 0

let matching canonical =
  List.filter (fun r -> contains ~pattern:r.pattern canonical) (rules ())

(* Interrupted sleeps (SIGINT during a Slow fault) just end early; the
   cancellation flag, if any, is checked at the next job boundary. *)
let sleep s =
  if s > 0.0 then try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

let inject canonical =
  match rules () with
  | [] -> ()
  | _ ->
      List.iter
        (fun r ->
          match r.kind with
          | Corrupt -> ()
          | Slow s -> sleep s
          | Crash -> raise (Injected canonical))
        (matching canonical)

let wants_corrupt canonical =
  List.exists (fun r -> r.kind = Corrupt) (matching canonical)

(* ----------------------------------------------------------------- *)
(* Failures                                                           *)
(* ----------------------------------------------------------------- *)

type failure = {
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;
}

let pp_failure ppf f = Format.pp_print_string ppf (Printexc.to_string f.exn)
