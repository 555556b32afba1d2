(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]) for direct-mapped levels.  Same
   filtered semantics (level i+1 only sees level i's misses), same
   write-allocate and dirty-line accounting, so the per-level [Stats.t]
   match the reference path exactly.  Speed comes from [block], which
   consumes a whole two-loop segment at once: as long as no reference
   crosses an L1 line boundary and every referenced line is
   L1-resident, the iterations are guaranteed hits that touch no lower
   level, so they can be accounted in bulk; and the segment's L1 misses
   reach the lower levels as a batch, one level at a time.

   Associative levels and hardware prefetch are not modelled here;
   [create] rejects the former, and callers gate on both and fall back
   to the reference path. *)

type level = {
  line_bits : int;
  set_mask : int;
  (* tags.(set) = (line_addr lsl 1) lor dirty, -1 = empty.  Lines are
     >= 4 bytes and line addresses come from [lsr], so they are below
     2^61: the word never overflows, and a resident line's is >= 0. *)
  tags : int array;
  stats : Stats.t;
}

type t = {
  write_allocate : bool;
  levels : level array;
  (* scratch for [block], grown on demand to the widest ref group seen *)
  mutable cur : int array;
  mutable slot : int array;
  mutable rem : int array;
  mutable shift : int array;
  (* L1 misses of a [block] awaiting the levels below, in
     order, each [(addr land lnot 1) lor write] (lines are >= 4 bytes) *)
  batch : int array;
  (* fast-path accounting: how [block] consumed its iterations *)
  mutable bulk_segments : int;
  mutable bulk_iterations : int;
  mutable seq_iterations : int;
}

type metrics = {
  bulk_segments : int;
  bulk_iterations : int;
  seq_iterations : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let make_level i (geom : Level.geometry) =
  if geom.assoc <> 1 then
    invalid_arg
      (Printf.sprintf "Fast_sim.create: L%d is %d-way, only direct-mapped levels are simulated"
         (i + 1) geom.assoc);
  if not (is_pow2 geom.size) then invalid_arg "Fast_sim.create: size not a power of two";
  if not (is_pow2 geom.line) then invalid_arg "Fast_sim.create: line not a power of two";
  if geom.line < 4 then invalid_arg "Fast_sim.create: line smaller than 4 bytes";
  if geom.line > geom.size then invalid_arg "Fast_sim.create: line larger than cache";
  let n_lines = geom.size / geom.line in
  {
    line_bits = log2 geom.line;
    set_mask = n_lines - 1;
    tags = Array.make n_lines (-1);
    stats = Stats.create ();
  }

(* Entries of [batch]: enough to amortise the per-level loop setup,
   small enough to stay in the host's L1 data cache. *)
let batch_capacity = 1024

let create ?(write_allocate = true) geoms =
  if geoms = [] then invalid_arg "Fast_sim.create: no levels";
  {
    write_allocate;
    levels = Array.of_list (List.mapi make_level geoms);
    cur = [||];
    slot = [||];
    rem = [||];
    shift = [||];
    batch = Array.make batch_capacity 0;
    bulk_segments = 0;
    bulk_iterations = 0;
    seq_iterations = 0;
  }

let level_stats t = Array.to_list (Array.map (fun l -> l.stats) t.levels)

let metrics (t : t) : metrics =
  {
    bulk_segments = t.bulk_segments;
    bulk_iterations = t.bulk_iterations;
    seq_iterations = t.seq_iterations;
  }

(* The access routines leave [Stats.t] alone; callers count in locals. *)
let[@inline] charge (st : Stats.t) ~accesses ~misses ~writes ~writebacks =
  st.accesses <- st.accesses + accesses;
  st.hits <- st.hits + accesses - misses;
  st.misses <- st.misses + misses;
  st.writes <- st.writes + writes;
  st.writebacks <- st.writebacks + writebacks

(* One access at one level, on the line address and set the caller
   already computed; mirrors Level.access minus prefetch.  The outcome
   is 0 for a hit, 2 for a miss, 3 for a miss whose fill evicted a dirty
   line: [o lsr 1] counts the miss, [o land 1] the writeback.  Sets are
   in bounds, so the unchecked array accesses are safe.  [access_dm] is
   the one copy of the access logic; [miss_dm] is its miss half, which
   [block_dm] calls after its own tag test. *)
let[@inline] miss_dm ~write_allocate ~write tags line_addr set =
  if write && not write_allocate then 2
  else begin
    let e = Array.unsafe_get tags set in
    Array.unsafe_set tags set ((line_addr lsl 1) lor Bool.to_int write);
    if e >= 0 && e land 1 = 1 then 3 else 2
  end

let[@inline] access_dm ~write_allocate ~write tags line_addr set =
  let e = Array.unsafe_get tags set in
  if e lsr 1 = line_addr then begin
    if write then Array.unsafe_set tags set (e lor 1);
    0
  end
  else miss_dm ~write_allocate ~write tags line_addr set

(* One access down the cascade, as a loop: level [i+1] only sees level
   [i]'s misses.  Returns the index of the level that hit, or the number
   of levels for a main-memory access. *)
let cascade t ~write addr =
  let levels = t.levels and write_allocate = t.write_allocate in
  let n = Array.length levels in
  let i = ref 0 in
  while
    !i < n
    && begin
         let l = Array.unsafe_get levels !i in
         let line_addr = addr lsr l.line_bits in
         let set = line_addr land l.set_mask in
         let o = access_dm ~write_allocate ~write l.tags line_addr set in
         let st = l.stats in
         st.accesses <- st.accesses + 1;
         if write then st.writes <- st.writes + 1;
         if o = 0 then st.hits <- st.hits + 1
         else (st.misses <- st.misses + 1; st.writebacks <- st.writebacks + (o land 1));
         o <> 0
       end
  do
    incr i
  done;
  !i

let access t ?(write = false) addr = cascade t ~write addr

(* Takes the [n] pending L1 misses in [t.batch] through levels 1.., one
   level at a time: each level runs over the batch in order, through the
   same per-access routines as [cascade], and compacts its own misses
   to the front for the next level.  Exact: a level's state depends only
   on the stream it is fed, and this feeds level i+1 exactly level i's
   misses in their order, as [cascade] per miss would; nothing reads
   a lower level while a batch is pending. *)
let flush t n =
  let levels = t.levels and batch = t.batch and write_allocate = t.write_allocate in
  let n = ref n and i = ref 1 in
  while !n > 0 && !i < Array.length levels do
    let l = Array.unsafe_get levels !i in
    let line_bits = l.line_bits and set_mask = l.set_mask and tags = l.tags in
    let kept = ref 0 and writes = ref 0 and writebacks = ref 0 in
    for k = 0 to !n - 1 do
      let e = Array.unsafe_get batch k in
      let line_addr = e lsr line_bits in
      let set = line_addr land set_mask and write = e land 1 = 1 in
      writes := !writes + (e land 1);
      let o = access_dm ~write_allocate ~write tags line_addr set in
      if o <> 0 then begin
        writebacks := !writebacks + (o land 1);
        Array.unsafe_set batch !kept e;
        incr kept
      end
    done;
    charge l.stats ~accesses:!n ~misses:!kept ~writes:!writes ~writebacks:!writebacks;
    n := !kept;
    incr i
  done

(* Appends an L1 miss to the batch at [pending] and returns the new
   pending count, sending a full batch down first. *)
let[@inline] push t pending addr ~write =
  Array.unsafe_set t.batch pending ((addr land lnot 1) lor Bool.to_int write);
  if pending + 1 = batch_capacity then begin
    flush t batch_capacity;
    0
  end
  else pending + 1

(* Iterations, the current one included, that a reference at [a] with
   stride [s] stays on its line; [sh] is log2 |s| for a power-of-two
   stride below a line, else -1. *)
let[@inline] cross_dist ~line_mask a s sh =
  let line = line_mask + 1 in
  if s = 0 then max_int
  else if s >= line || -s >= line then 1
  else if s > 0 then
    let d = line - (a land line_mask) + s - 1 in
    if sh >= 0 then d lsr sh else d / s
  else
    let d = a land line_mask in
    (if sh >= 0 then d lsr sh else d / -s) + 1

let ensure_scratch t n =
  if Array.length t.cur < n then begin
    t.cur <- Array.make n 0;
    t.slot <- Array.make n 0;
    t.rem <- Array.make n 0;
    t.shift <- Array.make n 0
  end

(* [block] pushes a two-loop segment through the hierarchy: row o,
   iteration j issues, for each ref r in order,
   [bases.(r) + o * outer_strides.(r) + j * strides.(r)] (a write iff
   [writes.(r)]); rows run in order, each [count] iterations.  Rows
   that continue one another are joined into one; [block_dm] then takes
   the rows one by one, restarting its phase logic at each row start,
   so its work counters are those of one call per row.

   Exactness: while every reference hits L1, lower levels see nothing
   and no line is installed or evicted, so such iterations change no
   tag state, only counters and dirty bits (idempotent: any write during
   the run leaves the line dirty before the next possible eviction).  A
   direct-mapped L1 has no recency state, so a steady all-hit phase
   needs nothing but counting.  Per reference we track [rem], the number
   of iterations (current included) it stays on its current line — pure
   address geometry; the phase advances by the minimum and re-probes
   only the references that crossed a line boundary, since nothing was
   installed, so the others cannot have been evicted.  Crossed refs are
   committed in two phases (check residency of all, then update), so a
   miss never sets a dirty bit of an unsimulated iteration.  When a
   crossed ref's new line is not resident, that one iteration runs in
   place, keeping [rem] current; the phase goes on if every ref that
   stays on its line still holds it, dirty if the ref writes (a later
   fill may have evicted it, or a read filled it clean).  Otherwise
   iterations run sequentially, with no [rem] upkeep, until one is
   all-hit again.  A sequential iteration tests each ref's tag at its
   turn (an install can evict a later ref's line) and sends a miss
   through [miss_dm] into [t.batch] ([flush]ed when full and before
   returning).  L1 is charged once, with the misses counted here.

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < nrefs, and [block] validated the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let cur = t.cur and rem = t.rem and slot = t.slot and shift = t.shift in
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let tags = l1.tags in
  let line_mask = (1 lsl line_bits) - 1 in
  let nwrites = ref 0 in
  for r = 0 to nrefs - 1 do
    let s = abs strides.(r) in
    shift.(r) <- (if s <= line_mask && is_pow2 s then log2 s else -1);
    if writes.(r) then incr nwrites
  done;
  let nwrites = !nwrites in
  let write_allocate = t.write_allocate in
  let bulk_segs = ref 0 and bulk_iters = ref 0 and seq_iters = ref 0 in
  let nmiss = ref 0 and nwb = ref 0 in
  let pending = ref 0 in
  for o = 0 to outer_count - 1 do
    for r = 0 to nrefs - 1 do
      Array.unsafe_set cur r
        (Array.unsafe_get bases r + (o * Array.unsafe_get outer_strides r))
    done;
    let i = ref 0 in
    while !i < count do
      (* is iteration !i an all-hit iteration? *)
      let all = ref true in
      for r = 0 to nrefs - 1 do
        let la = Array.unsafe_get cur r lsr line_bits in
        if Array.unsafe_get tags (la land set_mask) lsr 1 <> la then all := false
      done;
      if !all then begin
        (* steady all-hit phase *)
        for r = 0 to nrefs - 1 do
          let a = Array.unsafe_get cur r in
          if Array.unsafe_get writes r then begin
            let set = (a lsr line_bits) land set_mask in
            Array.unsafe_set tags set (Array.unsafe_get tags set lor 1)
          end;
          Array.unsafe_set rem r
            (cross_dist ~line_mask a (Array.unsafe_get strides r) (Array.unsafe_get shift r))
        done;
        let steady = ref true in
        while !steady && !i < count do
          let k = ref (count - !i) in
          for r = 0 to nrefs - 1 do
            let rr = Array.unsafe_get rem r in
            if rr < !k then k := rr
          done;
          let k = !k in
          bulk_iters := !bulk_iters + k;
          incr bulk_segs;
          i := !i + k;
          for r = 0 to nrefs - 1 do
            Array.unsafe_set rem r (Array.unsafe_get rem r - k);
            Array.unsafe_set cur r
              (Array.unsafe_get cur r + (k * Array.unsafe_get strides r))
          done;
          let crossing = ref (!i < count) in
          while !crossing do
            (* crossed refs (rem = 0) moved onto unverified lines *)
            let ok = ref true in
            let nc = ref 0 in
            for r = 0 to nrefs - 1 do
              if Array.unsafe_get rem r = 0 then begin
                let la = Array.unsafe_get cur r lsr line_bits in
                if Array.unsafe_get tags (la land set_mask) lsr 1 <> la then ok := false;
                Array.unsafe_set slot !nc r;
                incr nc
              end
            done;
            if !ok then begin
              for j = 0 to !nc - 1 do
                let r = Array.unsafe_get slot j in
                let a = Array.unsafe_get cur r in
                if Array.unsafe_get writes r then begin
                  let set = (a lsr line_bits) land set_mask in
                  Array.unsafe_set tags set (Array.unsafe_get tags set lor 1)
                end;
                Array.unsafe_set rem r
                  (cross_dist ~line_mask a (Array.unsafe_get strides r) (Array.unsafe_get shift r))
              done;
              crossing := false
            end
            else begin
              (* iteration !i in place *)
              for r = 0 to nrefs - 1 do
                let a = Array.unsafe_get cur r and s = Array.unsafe_get strides r in
                if Array.unsafe_get rem r = 0 then
                  Array.unsafe_set rem r (cross_dist ~line_mask a s (Array.unsafe_get shift r));
                let la = a lsr line_bits and w = Array.unsafe_get writes r in
                let set = la land set_mask in
                let e = Array.unsafe_get tags set in
                if e lsr 1 = la then begin
                  if w then Array.unsafe_set tags set (e lor 1)
                end
                else begin
                  let o = miss_dm ~write_allocate ~write:w tags la set in
                  incr nmiss;
                  nwb := !nwb + (o land 1);
                  pending := push t !pending a ~write:w
                end;
                Array.unsafe_set cur r (a + s);
                Array.unsafe_set rem r (Array.unsafe_get rem r - 1)
              done;
              incr seq_iters;
              incr i;
              if !i < count then
                for r = 0 to nrefs - 1 do
                  if Array.unsafe_get rem r > 0 then begin
                    let la = Array.unsafe_get cur r lsr line_bits in
                    let e = Array.unsafe_get tags (la land set_mask) in
                    if
                      if Array.unsafe_get writes r then e <> (la lsl 1) lor 1
                      else e lsr 1 <> la
                    then steady := false
                  end
                done;
              crossing := !steady && !i < count
            end
          done
        done
      end
      else begin
        (* sequential phase: whole iterations until one is all-hit again *)
        let had_miss = ref true in
        while !had_miss && !i < count do
          had_miss := false;
          for r = 0 to nrefs - 1 do
            let a = Array.unsafe_get cur r in
            let la = a lsr line_bits and w = Array.unsafe_get writes r in
            let set = la land set_mask in
            let e = Array.unsafe_get tags set in
            if e lsr 1 = la then begin
              if w then Array.unsafe_set tags set (e lor 1)
            end
            else begin
              let o = miss_dm ~write_allocate ~write:w tags la set in
              had_miss := true;
              incr nmiss;
              nwb := !nwb + (o land 1);
              pending := push t !pending a ~write:w
            end;
            Array.unsafe_set cur r (a + Array.unsafe_get strides r)
          done;
          incr seq_iters;
          incr i
        done
      end
    done
  done;
  flush t !pending;
  let iters = !bulk_iters + !seq_iters in
  charge l1.stats ~accesses:(iters * nrefs) ~misses:!nmiss ~writes:(iters * nwrites)
    ~writebacks:!nwb;
  t.bulk_segments <- t.bulk_segments + !bulk_segs;
  t.bulk_iterations <- t.bulk_iterations + !bulk_iters;
  t.seq_iterations <- t.seq_iterations + !seq_iters

let block t ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  if
    Array.length strides <> nrefs
    || Array.length writes <> nrefs
    || Array.length outer_strides <> nrefs
  then invalid_arg "Fast_sim.block: bases/strides/writes/outer_strides length mismatch";
  if nrefs > 0 && count > 0 && outer_count > 0 then begin
    (* rows that continue one another are one row *)
    let joined = ref (outer_count > 1) in
    Array.iteri (fun r o -> if o <> count * strides.(r) then joined := false) outer_strides;
    let count, outer_count = if !joined then (count * outer_count, 1) else (count, outer_count) in
    block_dm t t.levels.(0) ~bases ~strides ~writes ~count ~outer_strides ~outer_count
  end
