type t = { mutable state : int }

let create ~seed = { state = (seed lxor 0x1E3779B97F4A7C15) lor 1 }

(* LCG with a 62-bit-safe multiplier (OCaml ints are 63-bit); masking
   keeps the state positive. *)
let next t =
  t.state <- (t.state * 2862933555777941757) + 3037000493;
  t.state land max_int

let int t bound =
  if bound <= 0 then invalid_arg "Det_random.int: bound <= 0";
  next t mod bound

let table ~seed ~n ~bound =
  let t = create ~seed in
  let a = Array.make n 0 in
  for k = 0 to n - 1 do
    a.(k) <- int t bound
  done;
  a

let permutation ~seed ~n =
  let t = create ~seed in
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- i
  done;
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a
