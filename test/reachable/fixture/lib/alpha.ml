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
