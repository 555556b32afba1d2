(* Classic Fenwick-tree formulation: position t of the tree holds 1 when
   the line accessed at time t has not been touched again since.  The
   stack distance of an access to a line last touched at time t0 is the
   number of set positions in (t0, now). *)

type t = {
  total : int;
  cold : int;
  (* finite-distance histogram *)
  hist : (int, int) Hashtbl.t;
}

module Fenwick = struct
  type t = { tree : int array }

  let create n = { tree = Array.make (n + 1) 0 }

  let add t i delta =
    let i = ref (i + 1) in
    while !i < Array.length t.tree do
      t.tree.(!i) <- t.tree.(!i) + delta;
      i := !i + (!i land - !i)
    done

  (* sum of positions [0, i] *)
  let prefix t i =
    let acc = ref 0 in
    let i = ref (i + 1) in
    while !i > 0 do
      acc := !acc + t.tree.(!i);
      i := !i - (!i land - !i)
    done;
    !acc

  let range t lo hi = if hi < lo then 0 else prefix t hi - if lo = 0 then 0 else prefix t (lo - 1)
end

let analyze ?(line = 32) trace =
  let n = Array.length trace in
  let fen = Fenwick.create n in
  let last_access = Hashtbl.create 1024 in
  let hist = Hashtbl.create 64 in
  let cold = ref 0 in
  Array.iteri
    (fun now addr ->
      let l = addr / line in
      (match Hashtbl.find_opt last_access l with
      | None -> incr cold
      | Some t0 ->
          let d = Fenwick.range fen (t0 + 1) (now - 1) in
          Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d));
          Fenwick.add fen t0 (-1));
      Fenwick.add fen now 1;
      Hashtbl.replace last_access l now)
    trace;
  { total = n; cold = !cold; hist }

let total t = t.total

let cold t = t.cold

let misses_at t ~lines =
  (* distance counts the lines touched strictly between the two accesses;
     the line itself plus [d] distinct others need [d + 1] slots, so an
     access hits iff d + 1 <= lines. *)
  t.cold
  + Hashtbl.fold (fun d c acc -> if d + 1 > lines then acc + c else acc) t.hist 0

let miss_curve t ~capacities =
  List.map (fun lines -> (lines, misses_at t ~lines)) capacities
