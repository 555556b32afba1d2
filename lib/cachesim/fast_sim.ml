(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]) for direct-mapped levels.  Same
   filtered semantics (level i+1 only sees level i's misses), same
   write-allocate and dirty-line accounting, so the per-level [Stats.t]
   match the reference path exactly.  Speed comes from [block], which
   consumes a whole two-loop segment at once: as long as no reference
   crosses an L1 line boundary and every referenced line is
   L1-resident, the iterations are guaranteed hits that touch no lower
   level, so they can be accounted in bulk, jumping from one line
   crossing to the next as a per-row calendar of crossings lists them;
   a reference that crosses onto a missing line is installed in place,
   without leaving the bulk path, when no other reference's line sits
   in that L1 set; and the segment's L1 misses reach the lower levels
   as a batch, one level at a time.

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
     per ref its address and the L1 set of its current line *)
  mutable cur : int array;
  mutable set : int array;
  (* the crossing calendar of [block]'s current row (see [calendar]):
     ref lists per residue, list starts (L1 line + 1 entries), and
     distance to the next non-empty residue (L1 line entries) *)
  mutable cal : int array;
  cal_start : int array;
  cal_gap : int array;
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
    set = [||];
    cal = [||];
    cal_start = Array.make ((1 lsl levels.(0).line_bits) + 1) 0;
    cal_gap = Array.make (1 lsl levels.(0).line_bits) 0;
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

let ensure_scratch t n =
  if Array.length t.cur < n then begin
    t.cur <- Array.make n 0;
    t.set <- Array.make n 0
  end

(* The crossing calendar of row [o] of a [block] call, with period [p]
   (a power of two, at most the L1 line): for each residue [rho < p],
   [t.cal.(t.cal_start.(rho)) .. t.cal.(t.cal_start.(rho + 1) - 1)] are
   the refs, in order, whose L1 line at iteration [j] differs from their
   line at [j - 1] for every [j] of the row with [j land (p - 1) = rho],
   and [t.cal_gap.(rho)] is the distance from [rho] to the first residue
   at or after it (cyclically) whose list is not empty, [max_int] when
   none is.  A ref's offset within its line at iteration [j] is
   [(a0 + j * s) mod line], which repeats every line / gcd(|s|, line)
   iterations, a power of two that divides [p]; so does the crossing
   test, which is therefore made once per residue, on the addresses of
   iterations [rho - 1] and [rho].  The calendar fits every row that
   starts each moving ref at the same offset within its line. *)
let calendar t ~bases ~strides ~outer_strides ~line_bits ~p o =
  let nrefs = Array.length bases in
  if Array.length t.cal < p * nrefs then t.cal <- Array.make (p * nrefs) 0;
  let cal = t.cal and start = t.cal_start and gap = t.cal_gap in
  let n = ref 0 in
  for rho = 0 to p - 1 do
    start.(rho) <- !n;
    for r = 0 to nrefs - 1 do
      let s = strides.(r) in
      let a = bases.(r) + (o * outer_strides.(r)) + ((rho - 1) * s) in
      if s <> 0 && a lsr line_bits <> (a + s) lsr line_bits then begin
        cal.(!n) <- r;
        incr n
      end
    done
  done;
  start.(p) <- !n;
  let next = ref max_int in
  for k = (2 * p) - 1 downto 0 do
    let rho = k land (p - 1) in
    if start.(rho + 1) > start.(rho) then next := k;
    if k < p then gap.(rho) <- (if !next = max_int then max_int else !next - k)
  done

(* The first iteration at or after [j] at which a ref crosses, by the
   calendar's [gap], or [count] *)
let[@inline] next_crossing gap ~pmask ~count j =
  let g = Array.unsafe_get gap (j land pmask) in
  if g >= count - j then count else j + g

(* The probe: whether every ref's line of the iteration just issued
   ([cur] is one stride past it) is L1-resident, and dirty if the ref
   writes. *)
let resident l1 cur ~strides ~writes =
  let line_bits = l1.line_bits and set_mask = l1.set_mask and tags = l1.tags in
  let r = ref 0 and n = Array.length strides in
  while
    !r < n
    &&
    let la = (Array.unsafe_get cur !r - Array.unsafe_get strides !r) lsr line_bits in
    let e = Array.unsafe_get tags (la land set_mask) in
    e lsr 1 = la && (e land 1 = 1 || not (Array.unsafe_get writes !r))
  do
    incr r
  done;
  !r = n

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
   [miss_dm] into [t.batch] ([flush]ed when full and before returning).
   It ends after an iteration that hits throughout, or after its first
   iteration when the probe ([resident]) finds every ref's line of that
   iteration resident, and dirty if written; either way the steady
   phase starts from the next iteration with that invariant: every
   ref's current line is L1-resident, and dirty if the ref writes.

   Exactness of the steady phase: iterations in which no ref crosses a
   line boundary are then guaranteed hits that reach no lower level and
   change no tag state (dirty bits are idempotent), so a direct-mapped
   L1, which has no recency state, needs nothing but counting for them.
   The row's crossing [calendar] names the iterations at which some ref
   moves onto another line, and which refs do; the phase jumps to the
   next such iteration, and one pass over its list handles those refs
   in order.  Per ref, [set] is the L1 set of its current line, and
   [occ] counts the refs per set.  A crossed ref's new line either hits
   (setting its dirty bit if the ref writes) or is installed right
   there, its miss counted and batched, when no other ref's current line
   sits in its set: the line it evicts is then none a ref is on, so the
   invariant holds and the later refs of the iteration hit as assumed.
   Refs not yet handled in the pass still count on their old line,
   which only makes that test stricter.  On a clash, or a write miss
   without write-allocate (which installs nothing), the phase ends and
   the sequential phase takes over at that iteration, from that ref.
   L1 is charged once, with the misses counted here.

   The calendar is built at a row's first steady phase, and kept for
   the later rows of the call when every moving ref's outer stride is a
   multiple of the line ([shared]).  Its period [p] is the largest
   line / gcd(|s|, line) over the refs with 0 < |s| < line (a ref moving
   a line or more crosses at every iteration).  Where the steady phase
   cannot pay, the row runs access by access throughout ([bulk] false):
   - when half or more of the accesses cross a line (a ref crosses at
     min(|s|, line) / line of the iterations): a crossing pass then
     costs what the sequential iterations it replaces cost;
   - when a calendar would serve fewer than four periods of iterations:
     the row is shorter than that, and the call's rows either need
     calendars of their own or are that short all together.

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < nrefs, calendar residues < p, and [block] validated
   the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let cur = t.cur and rset = t.set and occ = t.occ in
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let tags = l1.tags in
  let line = 1 lsl line_bits in
  (* the period is line over the smallest power of two dividing a
     stride below a line; [crossing] sums min(|s|, line); [shared]: one
     calendar fits every row *)
  let low = ref line and crossing = ref 0 and nwrites = ref 0 and shared = ref true in
  for r = 0 to nrefs - 1 do
    let s = abs strides.(r) in
    if s < line then begin
      if s <> 0 && s land -s < !low then low := s land -s;
      crossing := !crossing + s
    end
    else crossing := !crossing + line;
    if s <> 0 && outer_strides.(r) land (line - 1) <> 0 then shared := false;
    if writes.(r) then incr nwrites
  done;
  let p = line / !low and nwrites = !nwrites and shared = !shared in
  let pmask = p - 1 in
  let bulk =
    (count >= 4 * p || (shared && count * outer_count >= 4 * p))
    && 2 * !crossing < nrefs * line
  in
  let cal_start = t.cal_start and cal_gap = t.cal_gap in
  (* the row [t]'s calendar was built for in this call, -1 for none *)
  let cal_row = ref (-1) in
  let write_allocate = t.write_allocate in
  let bulk_segs = ref 0 and bulk_iters = ref 0 in
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
    let had_miss = ref false in
    while !i < count do
      (* sequential phase: whole iterations until the steady phase may
         start, the probe tried after the first *)
      let probe = ref bulk and go = ref true in
      while !go do
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
        incr i;
        if !i = count then go := false
        else if not !had_miss then go := not bulk
        else if !probe then begin
          probe := false;
          go := not (resident l1 cur ~strides ~writes)
        end
      done;
      if !i < count then begin
        if !cal_row < 0 || ((not shared) && !cal_row <> o) then begin
          calendar t ~bases ~strides ~outer_strides ~line_bits ~p o;
          cal_row := o
        end;
        (* steady phase from [i0], with [cur] kept at [i0]; the current
           lines are those of iteration [i0 - 1] *)
        let i0 = !i and cal = t.cal in
        for r = 0 to nrefs - 1 do
          let set =
            ((Array.unsafe_get cur r - Array.unsafe_get strides r) lsr line_bits)
            land set_mask
          in
          Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
          Array.unsafe_set rset r set
        done;
        let nx = ref (next_crossing cal_gap ~pmask ~count i0) in
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
            let d = ic - i0 and rho = ic land pmask in
            let k = ref (Array.unsafe_get cal_start rho) in
            let stop = Array.unsafe_get cal_start (rho + 1) in
            while !k < stop do
              let q = Array.unsafe_get cal !k in
              let a = Array.unsafe_get cur q + (d * Array.unsafe_get strides q) in
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
                incr k
              end
              else k := stop
            done;
            if !steady then nx := next_crossing cal_gap ~pmask ~count (ic + 1)
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
  let iters = count * outer_count in
  charge l1.stats ~accesses:(iters * nrefs) ~misses:!nmiss ~writes:(iters * nwrites)
    ~writebacks:!nwb;
  t.bulk_segments <- t.bulk_segments + !bulk_segs;
  t.bulk_iterations <- t.bulk_iterations + !bulk_iters;
  t.seq_iterations <- t.seq_iterations + iters - !bulk_iters

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
