(* Property-test case counts.  [count default] is [default] unless the
   QCHECK_COUNT environment variable holds a positive integer, which then
   replaces it (the nightly CI job sets 2000). *)

let count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default
