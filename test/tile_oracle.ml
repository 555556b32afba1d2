(* The reference [Tile_size.max_conflict_free_width] is checked against:
   place every column, sort the positions and test each circular gap,
   then binary-search the width (adding a column can only shrink the
   minimum gap, so the test is monotone in the width).  It shares nothing
   with the gap scan it checks. *)

let conflict_free ~cache_elems ~col_elems ~height w =
  if height > cache_elems then false
  else begin
    let positions = Array.init w (fun k -> k * col_elems mod cache_elems) in
    Array.sort compare positions;
    let ok = ref true in
    for i = 0 to w - 2 do
      if positions.(i + 1) - positions.(i) < height then ok := false
    done;
    (* wrap-around gap *)
    if w >= 2 && cache_elems - positions.(w - 1) + positions.(0) < height then
      ok := false;
    (* duplicated positions always conflict *)
    for i = 0 to w - 2 do
      if positions.(i + 1) = positions.(i) then ok := false
    done;
    !ok
  end

let max_conflict_free_width ~cache_elems ~col_elems ~height ~max_width =
  if not (conflict_free ~cache_elems ~col_elems ~height 1) then 0
  else begin
    let ok w = conflict_free ~cache_elems ~col_elems ~height w in
    let lo = ref 1 and hi = ref max_width in
    if ok max_width then max_width
    else begin
      (* invariant: ok lo, not (ok hi) *)
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if ok mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
