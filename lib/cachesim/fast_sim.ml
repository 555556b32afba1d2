(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]) for direct-mapped levels.  Same
   filtered semantics (level i+1 only sees level i's misses), same
   write-allocate and dirty-line accounting, so the per-level [Stats.t]
   match the reference path exactly.  Speed comes from [block], which
   consumes a whole two-loop segment at once: as long as no reference
   crosses an L1 line boundary and every referenced line is
   L1-resident, the iterations are guaranteed hits that touch no lower
   level, so they can be accounted in bulk; a reference that crosses
   onto a missing line is installed in place, without leaving the bulk
   path, when no other reference's line sits in that L1 set; and the
   segment's L1 misses reach the lower levels as a batch, one level at
   a time.

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
  (* scratch for [block], grown on demand to the widest ref group seen:
     per ref its address, its next-crossing iteration, the L1 set of its
     current line, and log2 of its stride *)
  mutable cur : int array;
  mutable next : int array;
  mutable set : int array;
  mutable shift : int array;
  (* per L1 set, the refs whose current line sits in it during a steady
     phase of [block]; all zero outside one *)
  occ : int array;
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
  let levels = Array.of_list (List.mapi make_level geoms) in
  {
    write_allocate;
    levels;
    cur = [||];
    next = [||];
    set = [||];
    shift = [||];
    occ = Array.make (levels.(0).set_mask + 1) 0;
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
   nonzero stride [s] stays on its line; [sh] is log2 |s| for a
   power-of-two stride below a line, else -1. *)
let[@inline] cross_dist ~line_mask a s sh =
  let line = line_mask + 1 in
  if s >= line || -s >= line then 1
  else if s > 0 then
    let d = line - (a land line_mask) + s - 1 in
    if sh >= 0 then d lsr sh else d / s
  else
    let d = a land line_mask in
    (if sh >= 0 then d lsr sh else d / -s) + 1

let ensure_scratch t n =
  if Array.length t.cur < n then begin
    t.cur <- Array.make n 0;
    t.next <- Array.make n 0;
    t.set <- Array.make n 0;
    t.shift <- Array.make n 0
  end

(* [block] pushes a two-loop segment through the hierarchy: row o,
   iteration j issues, for each ref r in order,
   [bases.(r) + o * outer_strides.(r) + j * strides.(r)] (a write iff
   [writes.(r)]); rows run in order, each [count] iterations.  Rows
   that continue one another are joined into one; [block_dm] then takes
   the rows one by one, restarting its phase logic at each row start,
   so its work counters are those of one call per row.

   A row alternates two phases.  The sequential phase runs whole
   iterations access by access, testing each ref's tag at its turn (an
   install can evict a later ref's line) and sending a miss through
   [miss_dm] into [t.batch] ([flush]ed when full and before returning),
   until an iteration hits throughout.  Every line that iteration
   touched is then resident, and dirty if written, and the steady phase
   starts from the next iteration with that invariant: every ref's
   current line is L1-resident, and dirty if the ref writes.

   Exactness of the steady phase: iterations in which no ref crosses a
   line boundary are then guaranteed hits that reach no lower level and
   change no tag state (dirty bits are idempotent), so a direct-mapped
   L1, which has no recency state, needs nothing but counting for them.
   Per ref we keep [next], the absolute iteration at which it next moves
   onto another line (pure address geometry), and [set], the L1 set of
   its current line; [occ] counts the refs per set.  The phase jumps to
   the smallest [next], and one pass in ref order handles the refs that
   cross there and finds the next crossing point.  A crossed ref's new
   line either hits (setting its dirty bit if the ref writes) or is
   installed right there, its miss counted and batched, when no other
   ref's current line sits in its set: the line it evicts is then none
   a ref is on, so the invariant holds and the later refs of the
   iteration hit as assumed.  Refs not yet handled in the pass still
   count on their old line, which only makes that test stricter.  On a
   clash, or a write miss without write-allocate (which installs
   nothing), the phase ends and the sequential phase takes over at that
   iteration, from that ref.  L1 is charged once, with the misses
   counted here.

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < nrefs, and [block] validated the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let cur = t.cur and next = t.next and rset = t.set and shift = t.shift and occ = t.occ in
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
    (* the first ref of iteration [!i] not yet issued *)
    let from = ref 0 in
    while !i < count do
      (* sequential phase: whole iterations until one hits throughout *)
      let had_miss = ref true in
      while !had_miss && !i < count do
        had_miss := false;
        for r = !from to nrefs - 1 do
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
        from := 0;
        incr seq_iters;
        incr i
      done;
      if (not !had_miss) && !i < count then begin
        (* steady phase from [i0], with [cur] kept at [i0]; the current
           lines are those of iteration [i0 - 1] *)
        let i0 = !i in
        let nx = ref count in
        for r = 0 to nrefs - 1 do
          let s = Array.unsafe_get strides r in
          let a = Array.unsafe_get cur r - s in
          let set = (a lsr line_bits) land set_mask in
          Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
          Array.unsafe_set rset r set;
          let x =
            if s = 0 then max_int
            else i0 - 1 + cross_dist ~line_mask a s (Array.unsafe_get shift r)
          in
          Array.unsafe_set next r x;
          if x < !nx then nx := x
        done;
        let steady = ref true in
        while !steady do
          let ic = !nx in
          if ic > !i then begin
            bulk_iters := !bulk_iters + (ic - !i);
            incr bulk_segs;
            i := ic
          end;
          if ic = count then steady := false
          else begin
            (* the crossing pass at iteration [ic] *)
            let d = ic - i0 in
            nx := count;
            let r = ref 0 in
            while !r < nrefs do
              let q = !r in
              let x = Array.unsafe_get next q in
              if x > ic then begin
                if x < !nx then nx := x;
                r := q + 1
              end
              else begin
                let s = Array.unsafe_get strides q in
                let a = Array.unsafe_get cur q + (d * s) in
                let la = a lsr line_bits and w = Array.unsafe_get writes q in
                let set = la land set_mask and old = Array.unsafe_get rset q in
                let e = Array.unsafe_get tags set in
                if e lsr 1 = la then begin
                  if w then Array.unsafe_set tags set (e lor 1)
                end
                else if
                  Array.unsafe_get occ set = Bool.to_int (old = set)
                  && (write_allocate || not w)
                then begin
                  let o = miss_dm ~write_allocate ~write:w tags la set in
                  incr nmiss;
                  nwb := !nwb + (o land 1);
                  pending := push t !pending a ~write:w
                end
                else begin
                  (* a clash: iteration [ic] goes on in place from [q] *)
                  from := q;
                  steady := false
                end;
                if !steady then begin
                  Array.unsafe_set occ old (Array.unsafe_get occ old - 1);
                  Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
                  Array.unsafe_set rset q set;
                  let x = ic + cross_dist ~line_mask a s (Array.unsafe_get shift q) in
                  Array.unsafe_set next q x;
                  if x < !nx then nx := x;
                  r := q + 1
                end
                else r := nrefs
              end
            done
          end
        done;
        (* [cur] to iteration [!i], and to [!i + 1] for the refs a clash
           left already issued *)
        let d = !i - i0 and issued = !from in
        for r = 0 to nrefs - 1 do
          let s = Array.unsafe_get strides r in
          let d = if r < issued then d + 1 else d in
          Array.unsafe_set cur r (Array.unsafe_get cur r + (d * s));
          let set = Array.unsafe_get rset r in
          Array.unsafe_set occ set (Array.unsafe_get occ set - 1)
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
