(* Removes a test's temporary directory and everything under it. *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    let rec go path =
      if Sys.is_directory path then begin
        Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    in
    go dir
  end
