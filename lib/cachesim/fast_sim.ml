(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]).  Same filtered semantics (level
   i+1 only sees level i's misses), same LRU tie-breaking, same
   write-allocate and dirty-line accounting, so the per-level [Stats.t]
   match the reference path exactly.  Speed comes from [block], which
   consumes a whole two-loop segment at once: as long as no reference
   crosses an L1 line boundary and every referenced line is
   L1-resident, the iterations are guaranteed hits that touch no lower
   level, so they can be accounted in bulk with a single recency/dirty
   refresh; and, on a direct-mapped L1, the segment's L1 misses reach
   the lower levels as a batch, one level at a time.

   Hardware prefetch is not modelled here; callers gate on it and fall
   back to the reference path. *)

type level = {
  line_bits : int;
  set_mask : int;
  assoc : int;
  (* tags.(set * assoc + way), -1 = empty; mirrors Level. *)
  tags : int array;
  last_use : int array;
  dirty : bool array;
  mutable clock : int;
  stats : Stats.t;
}

type t = {
  write_allocate : bool;
  levels : level array;
  (* scratch for [block], grown on demand to the widest ref group seen *)
  mutable cur : int array;
  mutable slot : int array;
  mutable rem : int array;
  (* L1 misses of a direct-mapped [block] awaiting the levels below,
     each [(addr lsl 1) lor write], in issue order *)
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

let make_level (geom : Level.geometry) =
  if not (is_pow2 geom.size) then invalid_arg "Fast_sim.create: size not a power of two";
  if not (is_pow2 geom.line) then invalid_arg "Fast_sim.create: line not a power of two";
  if geom.line > geom.size then invalid_arg "Fast_sim.create: line larger than cache";
  if geom.assoc < 1 then invalid_arg "Fast_sim.create: associativity < 1";
  let n_lines = geom.size / geom.line in
  if n_lines mod geom.assoc <> 0 then
    invalid_arg "Fast_sim.create: associativity does not divide line count";
  let n_sets = n_lines / geom.assoc in
  if not (is_pow2 n_sets) then invalid_arg "Fast_sim.create: set count not a power of two";
  {
    line_bits = log2 geom.line;
    set_mask = n_sets - 1;
    assoc = geom.assoc;
    tags = Array.make n_lines (-1);
    last_use = Array.make n_lines 0;
    dirty = Array.make n_lines false;
    clock = 0;
    stats = Stats.create ();
  }

(* Entries of [batch]: enough to amortise the per-level loop setup,
   small enough to stay in the host's L1 data cache. *)
let batch_capacity = 1024

let create ?(write_allocate = true) geoms =
  if geoms = [] then invalid_arg "Fast_sim.create: no levels";
  {
    write_allocate;
    levels = Array.of_list (List.map make_level geoms);
    cur = [||];
    slot = [||];
    rem = [||];
    batch = Array.make batch_capacity 0;
    bulk_segments = 0;
    bulk_iterations = 0;
    seq_iterations = 0;
  }

let level_stats t = Array.to_list (Array.map (fun l -> l.stats) t.levels)

let memory_accesses t = t.levels.(Array.length t.levels - 1).stats.Stats.misses

let writebacks t =
  Array.fold_left (fun acc l -> acc + l.stats.Stats.writebacks) 0 t.levels

let miss_rates t =
  let total = t.levels.(0).stats.Stats.accesses in
  Array.to_list
    (Array.map (fun l -> Stats.miss_rate_vs ~total_refs:total l.stats) t.levels)

let metrics (t : t) : metrics =
  {
    bulk_segments = t.bulk_segments;
    bulk_iterations = t.bulk_iterations;
    seq_iterations = t.seq_iterations;
  }

(* One access at one level, on the line address and set the caller
   already computed; mirrors Level.access minus prefetch and returns
   whether it hit.  [set <= set_mask] and ways are bounded by assoc, so
   the unchecked array accesses are safe; stats are bumped inline to keep
   these paths allocation-free.

   [access_dm] is the one copy of the direct-mapped logic (no LRU state,
   so no clock): [cascade], [flush] and [block_dm]'s own L1 misses all
   inline it. *)
let[@inline] access_dm ~write_allocate ~write l line_addr set =
  let st = l.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.writes <- st.Stats.writes + 1;
  if Array.unsafe_get l.tags set = line_addr then begin
    if write then Array.unsafe_set l.dirty set true;
    st.Stats.hits <- st.Stats.hits + 1;
    true
  end
  else begin
    if (not write) || write_allocate then begin
      if Array.unsafe_get l.tags set >= 0 && Array.unsafe_get l.dirty set then
        st.Stats.writebacks <- st.Stats.writebacks + 1;
      Array.unsafe_set l.tags set line_addr;
      Array.unsafe_set l.dirty set write
    end;
    st.Stats.misses <- st.Stats.misses + 1;
    false
  end

let access_assoc ~write_allocate ~write l line_addr set =
  let st = l.stats in
  st.Stats.accesses <- st.Stats.accesses + 1;
  if write then st.Stats.writes <- st.Stats.writes + 1;
  l.clock <- l.clock + 1;
  let assoc = l.assoc in
  let base = set * assoc in
  let rec find way =
    if way = assoc then -1
    else if Array.unsafe_get l.tags (base + way) = line_addr then way
    else find (way + 1)
  in
  let way = find 0 in
  if way >= 0 then begin
    Array.unsafe_set l.last_use (base + way) l.clock;
    if write then Array.unsafe_set l.dirty (base + way) true;
    st.Stats.hits <- st.Stats.hits + 1;
    true
  end
  else begin
    if (not write) || write_allocate then begin
      let victim = ref 0 in
      for w = 1 to assoc - 1 do
        if Array.unsafe_get l.last_use (base + w)
           < Array.unsafe_get l.last_use (base + !victim)
        then victim := w
      done;
      let slot = base + !victim in
      if Array.unsafe_get l.tags slot >= 0 && Array.unsafe_get l.dirty slot then
        st.Stats.writebacks <- st.Stats.writebacks + 1;
      Array.unsafe_set l.tags slot line_addr;
      Array.unsafe_set l.dirty slot write;
      Array.unsafe_set l.last_use slot l.clock
    end;
    st.Stats.misses <- st.Stats.misses + 1;
    false
  end

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
         not
           (if l.assoc = 1 then access_dm ~write_allocate ~write l line_addr set
            else access_assoc ~write_allocate ~write l line_addr set)
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
    let line_bits = l.line_bits and set_mask = l.set_mask and dm = l.assoc = 1 in
    let kept = ref 0 in
    for k = 0 to !n - 1 do
      let e = Array.unsafe_get batch k in
      let line_addr = (e asr 1) lsr line_bits in
      let set = line_addr land set_mask and write = e land 1 = 1 in
      if
        not
          (if dm then access_dm ~write_allocate ~write l line_addr set
           else access_assoc ~write_allocate ~write l line_addr set)
      then begin
        Array.unsafe_set batch !kept e;
        incr kept
      end
    done;
    n := !kept;
    incr i
  done

(* Slot of [addr]'s line at level [l], or -1 when not resident. *)
let find_slot l addr =
  let line_addr = addr lsr l.line_bits in
  let set = line_addr land l.set_mask in
  if l.assoc = 1 then (if l.tags.(set) = line_addr then set else -1)
  else begin
    let base = set * l.assoc in
    let rec go way =
      if way = l.assoc then -1
      else if l.tags.(base + way) = line_addr then base + way
      else go (way + 1)
    in
    go 0
  end

let ensure_scratch t n =
  if Array.length t.cur < n then begin
    t.cur <- Array.make n 0;
    t.slot <- Array.make n 0;
    t.rem <- Array.make n 0
  end

(* [block] pushes a two-loop segment through the hierarchy: row o,
   iteration j issues, for each ref r in order,
   [bases.(r) + o * outer_strides.(r) + j * strides.(r)] (a write iff
   [writes.(r)]); rows run in order, each [count] iterations.  Both
   variants take the rows one by one, restarting their phase logic at
   each row start, so their work counters are those of one call per
   row.

   The exactness argument both variants rely on: while every reference
   hits L1, lower levels see nothing and no line is installed or evicted,
   so such iterations change no tag state — only counters, dirty bits
   (idempotent: any write during the run leaves the line dirty before the
   next possible eviction) and, for associative L1s, LRU recency. *)

(* Direct-mapped L1 (the paper's machines): no recency state at all, so a
   steady all-hit phase needs nothing but counting.  Per reference we
   track [rem], the number of iterations (current included) it stays on
   its current line — pure address geometry; the phase advances by the
   minimum and re-probes only the references that crossed a line
   boundary, since nothing was installed, so the others cannot have been
   evicted.  Crossed refs are committed in two phases (check residency of
   all, then update), so a miss exits the phase before any dirty bit of
   an unsimulated iteration is set.  Iterations with a missing line run
   sequentially in reference order with the L1 hit check inlined; only
   actually-missing refs go further (their installs can evict a later
   ref's line, hence the per-ref re-check at its turn): [access_dm]
   charges the miss to L1 on the line and set already computed, and the
   miss joins [t.batch] for the levels below ([flush]: when the batch is
   full, and before returning, so no batch outlives the call).  Inline
   hits carry no per-access counter updates at all: they are recovered
   at the end as (iterations * nrefs) - (L1 misses charged here).

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < nrefs, and [block] validated the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let cur = t.cur and rem = t.rem and slot = t.slot in
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let tags = l1.tags and dirty = l1.dirty in
  let line_mask = (1 lsl line_bits) - 1 in
  let line = line_mask + 1 in
  let cross_dist a s =
    if s = 0 then max_int
    else if s >= line || -s >= line then 1
    else if s > 0 then (line - (a land line_mask) + s - 1) / s
    else ((a land line_mask) / -s) + 1
  in
  let nwrites = ref 0 in
  for r = 0 to nrefs - 1 do
    if writes.(r) then incr nwrites
  done;
  let nwrites = !nwrites in
  let write_allocate = t.write_allocate in
  let bulk_iters = ref 0 in
  let seq_iters = ref 0 in
  let nmiss = ref 0 in
  let nmiss_w = ref 0 in
  let batch = t.batch and pending = ref 0 in
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
        if Array.unsafe_get tags (la land set_mask) <> la then all := false
      done;
      if !all then begin
        (* steady all-hit phase *)
        for r = 0 to nrefs - 1 do
          let a = Array.unsafe_get cur r in
          if Array.unsafe_get writes r then begin
            let la = a lsr line_bits in
            Array.unsafe_set dirty (la land set_mask) true
          end;
          Array.unsafe_set rem r (cross_dist a (Array.unsafe_get strides r))
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
          t.bulk_segments <- t.bulk_segments + 1;
          i := !i + k;
          for r = 0 to nrefs - 1 do
            Array.unsafe_set rem r (Array.unsafe_get rem r - k);
            Array.unsafe_set cur r
              (Array.unsafe_get cur r + (k * Array.unsafe_get strides r))
          done;
          if !i < count then begin
            (* crossed refs (rem = 0) moved onto unverified lines *)
            let ok = ref true in
            let nc = ref 0 in
            for r = 0 to nrefs - 1 do
              if Array.unsafe_get rem r = 0 then begin
                let la = Array.unsafe_get cur r lsr line_bits in
                if Array.unsafe_get tags (la land set_mask) <> la then ok := false;
                Array.unsafe_set slot !nc r;
                incr nc
              end
            done;
            let ok = !ok in
            for j = 0 to !nc - 1 do
              let r = Array.unsafe_get slot j in
              let a = Array.unsafe_get cur r in
              if ok && Array.unsafe_get writes r then begin
                let la = a lsr line_bits in
                Array.unsafe_set dirty (la land set_mask) true
              end;
              Array.unsafe_set rem r (cross_dist a (Array.unsafe_get strides r))
            done;
            if not ok then steady := false
          end
        done
      end
      else begin
        (* sequential phase: whole iterations until one is all-hit again *)
        let had_miss = ref true in
        while !had_miss && !i < count do
          had_miss := false;
          for r = 0 to nrefs - 1 do
            let a = Array.unsafe_get cur r in
            let la = a lsr line_bits in
            let set = la land set_mask in
            let w = Array.unsafe_get writes r in
            if Array.unsafe_get tags set = la then begin
              if w then Array.unsafe_set dirty set true
            end
            else begin
              had_miss := true;
              incr nmiss;
              if w then incr nmiss_w;
              ignore (access_dm ~write_allocate ~write:w l1 la set);
              Array.unsafe_set batch !pending (if w then (a lsl 1) lor 1 else a lsl 1);
              incr pending;
              if !pending = batch_capacity then begin
                flush t batch_capacity;
                pending := 0
              end
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
  let st = l1.stats in
  let inline_hits = ((!bulk_iters + !seq_iters) * nrefs) - !nmiss in
  let inline_writes = ((!bulk_iters + !seq_iters) * nwrites) - !nmiss_w in
  st.Stats.accesses <- st.Stats.accesses + inline_hits;
  st.Stats.hits <- st.Stats.hits + inline_hits;
  st.Stats.writes <- st.Stats.writes + inline_writes;
  t.bulk_iterations <- t.bulk_iterations + !bulk_iters;
  t.seq_iterations <- t.seq_iterations + !seq_iters

(* Associative L1: segments bounded by the next line crossing of any ref.
   If every ref's line is resident the whole segment is hits and is
   accounted in bulk; recency then needs one refresh — touching each
   ref's line once, in ref order, with fresh clock values reproduces the
   relative last-use order the per-access path would leave, and only the
   relative order feeds LRU victim selection. *)
let block_assoc t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let line_mask = (1 lsl l1.line_bits) - 1 in
  let line = line_mask + 1 in
  let cur = t.cur and slot = t.slot in
  let probe () =
    let ok = ref true in
    let r = ref 0 in
    while !ok && !r < nrefs do
      let s = find_slot l1 cur.(!r) in
      slot.(!r) <- s;
      if s < 0 then ok := false else incr r
    done;
    !ok
  in
  let bulk k =
    t.bulk_segments <- t.bulk_segments + 1;
    t.bulk_iterations <- t.bulk_iterations + k;
    let st = l1.stats in
    st.Stats.accesses <- st.Stats.accesses + (k * nrefs);
    st.Stats.hits <- st.Stats.hits + (k * nrefs);
    for r = 0 to nrefs - 1 do
      if writes.(r) then begin
        st.Stats.writes <- st.Stats.writes + k;
        l1.dirty.(slot.(r)) <- true
      end;
      l1.clock <- l1.clock + 1;
      l1.last_use.(slot.(r)) <- l1.clock
    done
  in
  let one_iteration () =
    t.seq_iterations <- t.seq_iterations + 1;
    for r = 0 to nrefs - 1 do
      ignore (cascade t ~write:writes.(r) cur.(r))
    done
  in
  let advance k =
    for r = 0 to nrefs - 1 do
      cur.(r) <- cur.(r) + (k * strides.(r))
    done
  in
  for o = 0 to outer_count - 1 do
    for r = 0 to nrefs - 1 do
      cur.(r) <- bases.(r) + (o * outer_strides.(r))
    done;
    let i = ref 0 in
    while !i < count do
      let left = count - !i in
      (* iterations until some ref leaves its current L1 line *)
      let k = ref left in
      for r = 0 to nrefs - 1 do
        let s = strides.(r) in
        if s > 0 then begin
          let c = (line - (cur.(r) land line_mask) + s - 1) / s in
          if c < !k then k := c
        end
        else if s < 0 then begin
          let c = ((cur.(r) land line_mask) / -s) + 1 in
          if c < !k then k := c
        end
      done;
      let k = !k in
      if probe () then begin
        bulk k;
        advance k;
        i := !i + k
      end
      else begin
        one_iteration ();
        advance 1;
        incr i;
        if k > 1 then begin
          if probe () then begin
            bulk (k - 1);
            advance (k - 1);
            i := !i + (k - 1)
          end
          else
            (* conflicting or non-allocated lines: no steady state within
               this segment, replay it access by access *)
            for _ = 2 to k do
              one_iteration ();
              advance 1;
              incr i
            done
        end
      end
    done
  done

let block t ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  if
    Array.length strides <> nrefs
    || Array.length writes <> nrefs
    || Array.length outer_strides <> nrefs
  then invalid_arg "Fast_sim.block: bases/strides/writes/outer_strides length mismatch";
  if nrefs > 0 && count > 0 && outer_count > 0 then begin
    let l1 = t.levels.(0) in
    if l1.assoc = 1 then
      block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count
    else block_assoc t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count
  end
