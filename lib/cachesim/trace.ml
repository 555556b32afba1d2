type t = int array

let replay hierarchy trace =
  Array.iter (fun addr -> ignore (Hierarchy.access hierarchy addr)) trace

let strided ~base ~stride ~count =
  Array.init count (fun i -> base + (i * stride))

let interleave traces =
  let traces = Array.of_list traces in
  let lengths = Array.map Array.length traces in
  let longest = Array.fold_left max 0 lengths in
  let out = ref [] in
  for step = 0 to longest - 1 do
    Array.iteri
      (fun i trace -> if step < lengths.(i) then out := trace.(step) :: !out)
      traces
  done;
  Array.of_list (List.rev !out)

let repeat n trace = Array.concat (List.init n (fun _ -> trace))

let lines_touched ~line trace =
  let seen = Hashtbl.create 64 in
  Array.iter (fun addr -> Hashtbl.replace seen (addr / line) ()) trace;
  Hashtbl.length seen
