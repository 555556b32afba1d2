type matrix = { n : int; data : float array }

let create n = { n; data = Array.make (n * n) 0.0 }

let random_fill ~seed m =
  let state = ref (seed lor 1) in
  for i = 0 to Array.length m.data - 1 do
    state := (!state * 1103515245) + 12345;
    let bits = !state land 0xFFFFFF in
    m.data.(i) <- float_of_int bits /. 16777216.0
  done

let multiply ~c ~a ~b =
  let n = c.n in
  if a.n <> n || b.n <> n then invalid_arg "Nat_matmul.multiply: size mismatch";
  let ca = c.data and aa = a.data and ba = b.data in
  for j = 0 to n - 1 do
    for k = 0 to n - 1 do
      let bkj = ba.(k + (n * j)) in
      let a_col = n * k and c_col = n * j in
      for i = 0 to n - 1 do
        ca.(i + c_col) <- ca.(i + c_col) +. (aa.(i + a_col) *. bkj)
      done
    done
  done

let multiply_tiled ~h ~w ~c ~a ~b =
  let n = c.n in
  if a.n <> n || b.n <> n then invalid_arg "Nat_matmul.multiply_tiled: size mismatch";
  if h <= 0 || w <= 0 then invalid_arg "Nat_matmul.multiply_tiled: bad tile";
  let ca = c.data and aa = a.data and ba = b.data in
  let kk = ref 0 in
  while !kk < n do
    let k_hi = min (!kk + w) n in
    let ii = ref 0 in
    while !ii < n do
      let i_hi = min (!ii + h) n in
      for j = 0 to n - 1 do
        let c_col = n * j in
        for k = !kk to k_hi - 1 do
          let bkj = ba.(k + (n * j)) in
          let a_col = n * k in
          for i = !ii to i_hi - 1 do
            ca.(i + c_col) <- ca.(i + c_col) +. (aa.(i + a_col) *. bkj)
          done
        done
      done;
      ii := !ii + h
    done;
    kk := !kk + w
  done

let multiply_unrolled ~c ~a ~b =
  let n = c.n in
  if a.n <> n || b.n <> n then invalid_arg "Nat_matmul.multiply_unrolled: size mismatch";
  let ca = c.data and aa = a.data and ba = b.data in
  for j = 0 to n - 1 do
    let c_col = n * j and b_col = n * j in
    let k = ref 0 in
    while !k + 3 < n do
      let k0 = !k in
      (* scalar-replace the four B operands for the whole column sweep *)
      let b0 = ba.(k0 + b_col)
      and b1 = ba.(k0 + 1 + b_col)
      and b2 = ba.(k0 + 2 + b_col)
      and b3 = ba.(k0 + 3 + b_col) in
      let a0 = n * k0 and a1 = n * (k0 + 1) and a2 = n * (k0 + 2) and a3 = n * (k0 + 3) in
      for i = 0 to n - 1 do
        ca.(i + c_col) <-
          ca.(i + c_col)
          +. (aa.(i + a0) *. b0)
          +. (aa.(i + a1) *. b1)
          +. (aa.(i + a2) *. b2)
          +. (aa.(i + a3) *. b3)
      done;
      k := k0 + 4
    done;
    while !k < n do
      let bkj = ba.(!k + b_col) in
      let a_col = n * !k in
      for i = 0 to n - 1 do
        ca.(i + c_col) <- ca.(i + c_col) +. (aa.(i + a_col) *. bkj)
      done;
      incr k
    done
  done

let max_abs_diff x y =
  if x.n <> y.n then invalid_arg "Nat_matmul.max_abs_diff: size mismatch";
  let m = ref 0.0 in
  for i = 0 to Array.length x.data - 1 do
    let d = abs_float (x.data.(i) -. y.data.(i)) in
    if d > !m then m := d
  done;
  !m

let mflop_count n = 2.0 *. float_of_int n *. float_of_int n *. float_of_int n /. 1.0e6
