module Obs = Mlc_obs.Obs

type t = { dir : string; version : string }

let default_dir () =
  match Sys.getenv_opt "MLC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> "_mlc_cache"

(* The models' identity: results are served only to the build that wrote
   them, so the version participates in every key.  It is a digest of the
   running executable: any rebuild — a new commit or an uncommitted edit —
   gets keys of its own, and no build ever reads entries in another
   build's [Marshal] layout.  Old entries are simply never addressed
   again — keys invalidate, mtimes never do. *)
let default_version_memo = ref None

let default_version () =
  match !default_version_memo with
  | Some v -> v
  | None ->
      let v =
        match Digest.file Sys.executable_name with
        | d -> "exe-" ^ Digest.to_hex d
        | exception Sys_error _ -> "unversioned"
      in
      default_version_memo := Some v;
      v

let create_dir_p dir =
  (* mkdir -p, tolerant of races with sibling workers *)
  let rec go d =
    if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
    else begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_ ?dir ?version () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  let version = match version with Some v -> v | None -> default_version () in
  create_dir_p dir;
  { dir; version }

let dir t = t.dir

let version t = t.version

let key t spec =
  Digest.to_hex (Digest.string (t.version ^ "\x00" ^ Job.canonical spec))

let path_of_key t k =
  Filename.concat (Filename.concat t.dir (String.sub k 0 2)) (k ^ ".bin")

let quarantine_dir_name = "quarantine"

let quarantine_dir t = Filename.concat t.dir quarantine_dir_name

(* A damaged entry is evidence of a problem (torn write, disk fault,
   version of mlc with a different result layout) — silently treating it
   as a miss forever would recompute and re-store over it on every run
   without anyone noticing.  Instead the file is moved aside under
   quarantine/, where `mlc cache stats` surfaces it, and the slot is
   recomputed cleanly. *)
let quarantine t path =
  let dst = Filename.concat (quarantine_dir t) (Filename.basename path) in
  (try
     create_dir_p (quarantine_dir t);
     Sys.rename path dst
   with Sys_error _ | Unix.Unix_error _ -> (
     (* Fall back to deleting: the entry must not stay addressable. *)
     try Sys.remove path with Sys_error _ -> ()));
  Obs.count "engine.cache.quarantined"

(* Entries carry the canonical spec string so a (vanishingly unlikely)
   digest collision or a truncated file degrades to a miss, never to a
   wrong result. *)
type entry_read = Entry of Job.result | Damaged | Absent

let read_entry path wanted_canonical =
  if not (Sys.file_exists path) then Absent
  else
    match open_in_bin path with
    | exception Sys_error _ -> Damaged (* exists but unreadable *)
    | ic ->
        let entry =
          try
            let (stored_canonical, result) : string * Job.result =
              Marshal.from_channel ic
            in
            if stored_canonical = wanted_canonical then Entry result else Damaged
          with _ -> Damaged
        in
        close_in_noerr ic;
        entry

let find t spec =
  let canon = Job.canonical spec in
  let path = path_of_key t (key t spec) in
  match read_entry path canon with
  | Entry r -> Some r
  | Absent -> None
  | Damaged ->
      quarantine t path;
      None

let store t spec (result : Job.result) =
  let k = key t spec in
  let path = path_of_key t k in
  create_dir_p (Filename.dirname path);
  (* Write-to-temp + rename: concurrent workers storing the same key race
     benignly (last rename wins, both files are identical). *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Domain.self () :> int)
  in
  let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  try
    let oc = open_out_bin tmp in
    (* Always close the channel and reclaim the temp file, whatever
       Marshal or the filesystem throws mid-write — IO errors degrade
       to "not cached" below, anything else propagates cleaned-up. *)
    (try
       Marshal.to_channel oc (Job.canonical spec, result) [];
       close_out oc
     with e ->
       close_out_noerr oc;
       remove_tmp ();
       raise e);
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ ->
    (* A read-only or vanished cache directory degrades to no caching. *)
    remove_tmp ()

(* Deterministic damage for the fault-injection tests: truncate the entry
   mid-payload so the next lookup must quarantine and recompute it. *)
let corrupt t spec =
  let path = path_of_key t (key t spec) in
  try
    let len = (Unix.stat path).Unix.st_size in
    Unix.truncate path (max 1 (len / 2))
  with Unix.Unix_error _ | Sys_error _ -> ()

(* ----------------------------------------------------------------- *)
(* Maintenance: stats / verify / gc                                   *)
(* ----------------------------------------------------------------- *)

type disk_stats = {
  entries : int;
  entry_bytes : int;
  quarantined_files : int;
  quarantined_bytes : int;
  tmp_files : int;
}

let is_bin name = Filename.check_suffix name ".bin"

let is_tmp name =
  (* "<key>.bin.tmp.<pid>.<domain>" — anything with ".tmp." in it *)
  let rec has i =
    i + 5 <= String.length name && (String.sub name i 5 = ".tmp." || has (i + 1))
  in
  has 0

let file_size path = try (Unix.stat path).Unix.st_size with _ -> 0

(* The cache's two-hex-digit shard directories, excluding quarantine/. *)
let shard_dirs t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n = 2
             && Sys.is_directory (Filename.concat t.dir n))
      |> List.sort compare

let iter_shard_files t f =
  List.iter
    (fun shard ->
      let d = Filename.concat t.dir shard in
      match Sys.readdir d with
      | exception Sys_error _ -> ()
      | names ->
          Array.sort compare names;
          Array.iter (fun n -> f (Filename.concat d n)) names)
    (shard_dirs t)

let disk_stats t =
  let entries = ref 0 and entry_bytes = ref 0 and tmp_files = ref 0 in
  iter_shard_files t (fun path ->
      if is_tmp (Filename.basename path) then incr tmp_files
      else if is_bin (Filename.basename path) then begin
        incr entries;
        entry_bytes := !entry_bytes + file_size path
      end);
  let qd = quarantine_dir t in
  let quarantined_files = ref 0 and quarantined_bytes = ref 0 in
  (match Sys.readdir qd with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n ->
          incr quarantined_files;
          quarantined_bytes := !quarantined_bytes + file_size (Filename.concat qd n))
        names);
  {
    entries = !entries;
    entry_bytes = !entry_bytes;
    quarantined_files = !quarantined_files;
    quarantined_bytes = !quarantined_bytes;
    tmp_files = !tmp_files;
  }

type verify_report = { checked : int; intact : int; damaged : int }

(* An entry is intact when it unmarshals to a (canonical, result) pair.
   Entries written under other versions of the models hash to different
   file names, so they are unreadable-by-key but still verifiable here;
   damage means bytes, not staleness. *)
let verify t =
  let checked = ref 0 and intact = ref 0 and damaged = ref 0 in
  iter_shard_files t (fun path ->
      if is_bin (Filename.basename path) && not (is_tmp (Filename.basename path))
      then begin
        incr checked;
        let ok =
          match open_in_bin path with
          | exception Sys_error _ -> false
          | ic ->
              let ok =
                match (Marshal.from_channel ic : string * Job.result) with
                | stored_canonical, _ -> String.length stored_canonical > 0
                | exception _ -> false
              in
              close_in_noerr ic;
              ok
        in
        if ok then incr intact
        else begin
          incr damaged;
          quarantine t path
        end
      end);
  { checked = !checked; intact = !intact; damaged = !damaged }

type gc_report = { removed_files : int; removed_bytes : int }

let gc ?(all = false) t =
  let removed_files = ref 0 and removed_bytes = ref 0 in
  let remove path =
    let sz = file_size path in
    match Sys.remove path with
    | () ->
        incr removed_files;
        removed_bytes := !removed_bytes + sz
    | exception Sys_error _ -> ()
  in
  (* Stale temp files are litter from interrupted stores; quarantined
     entries have served their diagnostic purpose once gc is invoked. *)
  iter_shard_files t (fun path ->
      if is_tmp (Filename.basename path) then remove path
      else if all && is_bin (Filename.basename path) then remove path);
  let qd = quarantine_dir t in
  (match Sys.readdir qd with
  | exception Sys_error _ -> ()
  | names -> Array.iter (fun n -> remove (Filename.concat qd n)) names);
  { removed_files = !removed_files; removed_bytes = !removed_bytes }
