type grid = { n : int; ld : int; data : float array }

let create ?ld n =
  let ld = match ld with Some l -> max l n | None -> n in
  { n; ld; data = Array.make (ld * n) 0.0 }

let random_fill ~seed g =
  let state = ref (seed lor 1) in
  for i = 0 to Array.length g.data - 1 do
    state := (!state * 1103515245) + 12345;
    g.data.(i) <- float_of_int (!state land 0xFFFF) /. 65536.0
  done

let jacobi_sweep ~src ~dst =
  let n = src.n in
  if dst.n <> n then invalid_arg "Nat_stencil.jacobi_sweep: size mismatch";
  let s = src.data and d = dst.data in
  let ls = src.ld and ldst = dst.ld in
  for j = 1 to n - 2 do
    let c = ls * j and cd = ldst * j in
    for i = 1 to n - 2 do
      d.(i + cd) <-
        0.25 *. (s.(i - 1 + c) +. s.(i + 1 + c) +. s.(i + c - ls) +. s.(i + c + ls))
    done
  done

let jacobi ~steps ~a ~b =
  for _ = 1 to steps do
    jacobi_sweep ~src:b ~dst:a;
    (* copy back *)
    let n = a.n in
    for j = 1 to n - 2 do
      let ca = a.ld * j and cb = b.ld * j in
      for i = 1 to n - 2 do
        b.data.(i + cb) <- a.data.(i + ca)
      done
    done
  done

(* EXPL-style second and third nests (Livermore 18's 76 and 77): nest A
   updates ZU/ZV from ZA/ZB/ZZ/ZR stencils; nest B integrates ZR/ZZ from
   ZU/ZV. *)
let nest76 ~za ~zb ~zu ~zv ~zr ~zz k =
  let n = za.n in
  let l = za.ld in
  let c = l * k and cm = l * (k - 1) and cp = l * (k + 1) in
  for j = 1 to n - 2 do
    zu.data.(j + c) <-
      zu.data.(j + c)
      +. 0.1
         *. ((za.data.(j + c) *. (zz.data.(j + c) -. zz.data.(j + 1 + c)))
            -. (za.data.(j - 1 + c) *. (zz.data.(j + c) -. zz.data.(j - 1 + c)))
            -. (zb.data.(j + c) *. (zz.data.(j + c) -. zz.data.(j + cm)))
            +. (zb.data.(j + cp) *. (zz.data.(j + c) -. zz.data.(j + cp))));
    zv.data.(j + c) <-
      zv.data.(j + c)
      +. 0.1
         *. ((za.data.(j + c) *. (zr.data.(j + c) -. zr.data.(j + 1 + c)))
            -. (za.data.(j - 1 + c) *. (zr.data.(j + c) -. zr.data.(j - 1 + c)))
            -. (zb.data.(j + c) *. (zr.data.(j + c) -. zr.data.(j + cm)))
            +. (zb.data.(j + cp) *. (zr.data.(j + c) -. zr.data.(j + cp))))
  done

let nest77 ~zu ~zv ~zr ~zz k =
  let n = zu.n in
  let l = zu.ld in
  let c = l * k in
  for j = 1 to n - 2 do
    zr.data.(j + c) <- zr.data.(j + c) +. (0.05 *. zu.data.(j + c));
    zz.data.(j + c) <- zz.data.(j + c) +. (0.05 *. zv.data.(j + c))
  done

let expl_separate ~za ~zb ~zu ~zv ~zr ~zz =
  let n = za.n in
  for k = 1 to n - 2 do
    nest76 ~za ~zb ~zu ~zv ~zr ~zz k
  done;
  for k = 1 to n - 2 do
    nest77 ~zu ~zv ~zr ~zz k
  done

(* Fused with an alignment shift of one column: at iteration k we run
   nest76(k) then nest77(k-1), so nest77 never consumes a ZU/ZV column
   before nest76 has produced it — and nest76(k) reads ZR/ZZ columns
   k-1..k+1, all still untouched by nest77 at that point except k-1...
   nest77(k-1) writes ZR/ZZ at k-1 AFTER nest76(k) read them: the values
   nest76 sees match the separate version only for columns >= k, so the
   shift must be 2 to be exactly equivalent.  We use shift 2 plus
   epilogue iterations. *)
let expl_fused ~za ~zb ~zu ~zv ~zr ~zz =
  let n = za.n in
  let shift = 2 in
  for k = 1 to n - 2 + shift do
    if k <= n - 2 then nest76 ~za ~zb ~zu ~zv ~zr ~zz k;
    let k' = k - shift in
    if k' >= 1 && k' <= n - 2 then nest77 ~zu ~zv ~zr ~zz k'
  done
