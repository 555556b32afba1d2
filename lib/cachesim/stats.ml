type t = {
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable writebacks : int;
}

let create () = { accesses = 0; hits = 0; misses = 0; writes = 0; writebacks = 0 }

let record ~write t ~hit =
  t.accesses <- t.accesses + 1;
  if write then t.writes <- t.writes + 1;
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1

let record_writeback t = t.writebacks <- t.writebacks + 1

let zero () = create ()

let add a b =
  {
    accesses = a.accesses + b.accesses;
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    writes = a.writes + b.writes;
    writebacks = a.writebacks + b.writebacks;
  }

let equal a b =
  a.accesses = b.accesses && a.hits = b.hits && a.misses = b.misses
  && a.writes = b.writes && a.writebacks = b.writebacks

let miss_rate_vs ~total_refs t =
  if total_refs = 0 then 0.0 else float_of_int t.misses /. float_of_int total_refs

let local_miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let pp ppf t =
  Format.fprintf ppf
    "accesses=%d hits=%d misses=%d writes=%d writebacks=%d (local miss rate %.2f%%)"
    t.accesses t.hits t.misses t.writes t.writebacks
    (100.0 *. local_miss_rate t)
