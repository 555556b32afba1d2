let shared x = x + 1

(* A use inside the module itself does not count. *)
let aliased = shared 1

let ( ++ ) a b = a + b

module Sub = struct
  let depth = 0
end

let stale = 2

let bare = 3

let oracle = 4

let tune ?(omitted = 0) ?(given = 0) ?(passed = 0) ?(none = 0) ?(coerced = 0) x =
  omitted + given + passed + none + coerced + x

let partial ?(left = 0) ~last () = left + last

let escaped ?(kept = 0) x = kept + x
