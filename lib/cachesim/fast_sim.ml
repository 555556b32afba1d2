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
   as a batch, one level at a time.  Whatever runs access by access
   ([block]'s sequential iterations, [stream]'s buffers) goes through
   small loops that call nothing, so their state stays in registers.

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
     [refs] holds per ref, interleaved, its current address, its stride
     and 1 if it writes (else 0); [set] the L1 set of its current line
     during a steady phase *)
  mutable refs : int array;
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
  (* L1 misses awaiting the levels below, in order, each
     [(addr land lnot 3) lor (writeback lsl 1) lor write], the
     writeback that of the L1 fill (lines are >= 4 bytes, so no level
     looks at bits 0 and 1 of the address); at least
     [batch_capacity] entries, and at least one iteration of the widest
     ref group *)
  mutable batch : int array;
  (* the current [block] or [stream] call's pending misses, and its L1
     misses and writebacks so far; [pending] is 0 between calls *)
  mutable pending : int;
  mutable nmiss : int;
  mutable nwb : int;
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
    refs = [||];
    set = [||];
    cal = [||];
    cal_start = Array.make ((1 lsl levels.(0).line_bits) + 1) 0;
    cal_gap = Array.make (1 lsl levels.(0).line_bits) 0;
    occ = Array.make (levels.(0).set_mask + 1) 0;
    batch = Array.make batch_capacity 0;
    pending = 0;
    nmiss = 0;
    nwb = 0;
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

(* The access routines leave [Stats.t] alone; their callers count. *)
let[@inline] charge (st : Stats.t) ~accesses ~misses ~writes ~writebacks =
  st.accesses <- st.accesses + accesses;
  st.hits <- st.hits + accesses - misses;
  st.misses <- st.misses + misses;
  st.writes <- st.writes + writes;
  st.writebacks <- st.writebacks + writebacks

(* One access at one level, on the line address and set the caller
   already computed, [w] 1 for a write and 0 for a read; mirrors
   Level.access minus prefetch.  The outcome is 0 for a hit, 2 for a
   miss, 3 for a miss whose fill evicted a dirty line: [o lsr 1] counts
   the miss, [o land 1] the writeback.  Sets are in bounds, so the
   unchecked array accesses are safe.  [access_dm] is the one copy of
   the access logic; [miss_dm] is its miss half on the tag word [e]
   already read, which the L1 loops below call after their own tag
   test. *)
let[@inline] miss_dm ~write_allocate ~w tags line_addr set e =
  if w <> 0 && not write_allocate then 2
  else begin
    Array.unsafe_set tags set ((line_addr lsl 1) lor w);
    if e >= 0 && e land 1 = 1 then 3 else 2
  end

let[@inline] access_dm ~write_allocate ~w tags line_addr set =
  let e = Array.unsafe_get tags set in
  if e lsr 1 = line_addr then begin
    if w <> 0 then Array.unsafe_set tags set (e lor 1);
    0
  end
  else miss_dm ~write_allocate ~w tags line_addr set e

(* One access down the cascade, as a loop: level [i+1] only sees level
   [i]'s misses.  Returns the index of the level that hit, or the number
   of levels for a main-memory access. *)
let cascade t ~write addr =
  let levels = t.levels and write_allocate = t.write_allocate in
  let n = Array.length levels and w = Bool.to_int write in
  let i = ref 0 in
  while
    !i < n
    && begin
         let l = Array.unsafe_get levels !i in
         let line_addr = addr lsr l.line_bits in
         let set = line_addr land l.set_mask in
         let o = access_dm ~write_allocate ~w l.tags line_addr set in
         let st = l.stats in
         st.accesses <- st.accesses + 1;
         st.writes <- st.writes + w;
         if o = 0 then st.hits <- st.hits + 1
         else (st.misses <- st.misses + 1; st.writebacks <- st.writebacks + (o land 1));
         o <> 0
       end
  do
    incr i
  done;
  !i

let access t ?(write = false) addr = cascade t ~write addr

(* One level's pass over the first [n] entries of [batch]: each goes
   through [access_dm] in order, the level's misses are compacted to the
   front for the next level, and the level is charged once.  Returns the
   misses kept.  The loop calls nothing. *)
let level_pass ~write_allocate l batch n =
  let line_bits = l.line_bits and set_mask = l.set_mask and tags = l.tags in
  let kept = ref 0 and writes = ref 0 and writebacks = ref 0 in
  for k = 0 to n - 1 do
    let e = Array.unsafe_get batch k in
    let line_addr = e lsr line_bits and w = e land 1 in
    writes := !writes + w;
    let o = access_dm ~write_allocate ~w tags line_addr (line_addr land set_mask) in
    if o <> 0 then begin
      writebacks := !writebacks + (o land 1);
      Array.unsafe_set batch !kept e;
      incr kept
    end
  done;
  charge l.stats ~accesses:n ~misses:!kept ~writes:!writes ~writebacks:!writebacks;
  !kept

(* Takes the pending L1 misses in [t.batch] through levels 1.., one
   [level_pass] each, and counts them as L1 misses of the call, and the
   writebacks their fills caused (bit 1 of each entry) as L1
   writebacks.  Exact: a level's state depends only on the stream it is
   fed, and this feeds level i+1 exactly level i's misses in their
   order, as [cascade] per miss would; nothing reads a lower level while
   a batch is pending. *)
let flush t =
  let levels = t.levels and batch = t.batch in
  let wb = ref 0 in
  for k = 0 to t.pending - 1 do
    wb := !wb + ((Array.unsafe_get batch k lsr 1) land 1)
  done;
  t.nmiss <- t.nmiss + t.pending;
  t.nwb <- t.nwb + !wb;
  let n = ref t.pending and i = ref 1 in
  while !n > 0 && !i < Array.length levels do
    n := level_pass ~write_allocate:t.write_allocate (Array.unsafe_get levels !i) batch !n;
    incr i
  done;
  t.pending <- 0

(* Appends an entry to the batch, sending a full batch down first. *)
let[@inline] push t entry =
  if t.pending = Array.length t.batch then flush t;
  let p = t.pending in
  Array.unsafe_set t.batch p entry;
  t.pending <- p + 1

let ensure_scratch t n =
  if Array.length t.set < n then begin
    t.refs <- Array.make (3 * n) 0;
    t.set <- Array.make n 0
  end;
  (* room for a whole iteration; nothing is pending between calls *)
  if Array.length t.batch < n then t.batch <- Array.make n 0

(* An L1 miss of the loops below on the tag word [e] already read:
   installs the line (or not, for a write without write-allocate) and
   returns the batch entry of the miss, its writeback in bit 1 (see
   [flush]).  Inlined, it keeps the loops free of calls. *)
let[@inline] l1_miss ~write_allocate tags la set e a w =
  let o = miss_dm ~write_allocate ~w tags la set e in
  (a land lnot 3) lor ((o land 1) lsl 1) lor w

(* The sequential kernel: up to [iters] whole iterations of the refs in
   [t.refs], access by access, the first iteration from ref [from].
   With [until_hit] it stops after an iteration with no L1 miss.  Each
   ref's tag is tested at its turn (an install can evict a later ref's
   line), a miss goes through [l1_miss], and the ref's address advances
   by its stride.  Returns the iterations not run, times two, plus 1
   when the last one run had no miss and [until_hit].

   The loop calls nothing and keeps few values live, so they stay in
   registers: the caller leaves the batch room for [iters] iterations
   and sends it down between calls (see [seq]).  [start] is the pending
   count at the start of the iteration, or -1 without [until_hit]; an
   iteration that left it unchanged had no miss. *)
let seq_kernel t l1 ~nrefs ~from ~iters ~until_hit =
  let refs = t.refs and tags = l1.tags and batch = t.batch in
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let write_allocate = t.write_allocate in
  let p = ref t.pending and left = ref iters and first = ref from in
  let start = ref (if until_hit then !p else -1) in
  while !left > 0 do
    for r = !first to nrefs - 1 do
      let b = 3 * r in
      let a = Array.unsafe_get refs b in
      Array.unsafe_set refs b (a + Array.unsafe_get refs (b + 1));
      let la = a lsr line_bits in
      let set = la land set_mask in
      let e = Array.unsafe_get tags set in
      if e lsr 1 = la then begin
        if Array.unsafe_get refs (b + 2) <> 0 then Array.unsafe_set tags set (e lor 1)
      end
      else begin
        let w = Array.unsafe_get refs (b + 2) in
        Array.unsafe_set batch !p (l1_miss ~write_allocate tags la set e a w);
        incr p
      end
    done;
    (* the end of an iteration: a hit throughout stops [until_hit],
       leaving [lnot] the iterations not run *)
    first := 0;
    left := !left - 1;
    if !p = !start then left := lnot !left else if !start >= 0 then start := !p
  done;
  t.pending <- !p;
  if !left < 0 then ((lnot !left) lsl 1) lor 1 else 0

(* [seq_kernel] over [iters] iterations, in calls that each fill at most
   the room left in the batch, which is sent down when it has none for
   a whole iteration; same result.  [iters] >= 1. *)
let seq_chunked t l1 ~nrefs ~from ~iters ~until_hit =
  let left = ref iters and from = ref from and result = ref (-1) in
  while !result < 0 do
    let room = (Array.length t.batch - t.pending) / nrefs in
    if room = 0 then flush t
    else begin
      let n = min room !left in
      let r = seq_kernel t l1 ~nrefs ~from:!from ~iters:n ~until_hit in
      left := !left - n + (r lsr 1);
      from := 0;
      if !left = 0 || r land 1 = 1 then result := (!left lsl 1) lor (r land 1)
    end
  done;
  !result

(* The same, in one kernel call when the batch has room for all *)
let[@inline] seq t l1 ~nrefs ~from ~iters ~until_hit =
  if t.pending + (iters * nrefs) <= Array.length t.batch then
    seq_kernel t l1 ~nrefs ~from ~iters ~until_hit
  else seq_chunked t l1 ~nrefs ~from ~iters ~until_hit

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
   (each address in [refs] is one stride past it) is L1-resident, and
   dirty if the ref writes. *)
let resident l1 refs ~nrefs =
  let line_bits = l1.line_bits and set_mask = l1.set_mask and tags = l1.tags in
  let b = ref 0 and stop = 3 * nrefs in
  while
    !b < stop
    &&
    let la = (Array.unsafe_get refs !b - Array.unsafe_get refs (!b + 1)) lsr line_bits in
    let e = Array.unsafe_get tags (la land set_mask) in
    e lsr 1 = la && (e land 1 = 1 || Array.unsafe_get refs (!b + 2) = 0)
  do
    b := !b + 3
  done;
  !b = stop

(* [block] pushes a two-loop segment through the hierarchy: row o,
   iteration j issues, for each ref r in order,
   [bases.(r) + o * outer_strides.(r) + j * strides.(r)] (a write iff
   [writes.(r)]); rows run in order, each [count] iterations.  Rows
   that continue one another are joined into one; [block_dm] then takes
   the rows one by one, each from its own start, so its work counters
   are those of one call per row.  Its per-ref state ([t.refs]) is set
   up once per call: addresses at each row start, and kept across the
   row's phases.

   A row alternates two phases.  The sequential phase runs whole
   iterations access by access, through [seq]; misses go to [t.batch],
   which is sent down between kernel calls and before returning.  It
   ends after an iteration that hits throughout, or after its first
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
   cannot pay, the whole call runs access by access, every row through
   [seq] with no phase logic ([bulk] false):
   - when half or more of the accesses cross a line (a ref crosses at
     min(|s|, line) / line of the iterations): a crossing pass then
     costs what the sequential iterations it replaces cost;
   - when a calendar would serve fewer than four periods of iterations:
     the row is shorter than that, and the call's rows either need
     calendars of their own or are that short all together.

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < 3 * nrefs, calendar residues < p, and [block]
   validated the input array lengths. *)
let block_dm t l1 ~bases ~strides ~writes ~count ~outer_strides ~outer_count =
  let nrefs = Array.length bases in
  ensure_scratch t nrefs;
  let refs = t.refs and rset = t.set and occ = t.occ in
  let line_bits = l1.line_bits and set_mask = l1.set_mask in
  let tags = l1.tags in
  let line = 1 lsl line_bits in
  (* the period is line over the smallest power of two dividing a
     stride below a line; [crossing] sums min(|s|, line); [shared]: one
     calendar fits every row *)
  let low = ref line and crossing = ref 0 and nwrites = ref 0 and shared = ref true in
  for r = 0 to nrefs - 1 do
    let s = strides.(r) in
    refs.((3 * r) + 1) <- s;
    refs.((3 * r) + 2) <- Bool.to_int writes.(r);
    let s = abs s in
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
  t.nmiss <- 0;
  t.nwb <- 0;
  for o = 0 to outer_count - 1 do
    for r = 0 to nrefs - 1 do
      Array.unsafe_set refs (3 * r)
        (Array.unsafe_get bases r + (o * Array.unsafe_get outer_strides r))
    done;
    if not bulk then ignore (seq t l1 ~nrefs ~from:0 ~iters:count ~until_hit:false)
    else begin
      let i = ref 0 in
      (* the first ref of iteration [!i] not yet issued *)
      let from = ref 0 in
      while !i < count do
        (* sequential phase: its first iteration, then the probe, then
           whole iterations up to one that hits throughout *)
        let r = seq t l1 ~nrefs ~from:!from ~iters:1 ~until_hit:true in
        from := 0;
        incr i;
        if !i < count && r land 1 = 0 && not (resident l1 refs ~nrefs) then begin
          let r = seq t l1 ~nrefs ~from:0 ~iters:(count - !i) ~until_hit:true in
          i := count - (r lsr 1)
        end;
        if !i < count then begin
          if !cal_row < 0 || ((not shared) && !cal_row <> o) then begin
            calendar t ~bases ~strides ~outer_strides ~line_bits ~p o;
            cal_row := o
          end;
          (* steady phase from [i0], with the addresses kept at [i0];
             the current lines are those of iteration [i0 - 1] *)
          let i0 = !i and cal = t.cal in
          for r = 0 to nrefs - 1 do
            let set =
              ((Array.unsafe_get refs (3 * r) - Array.unsafe_get refs ((3 * r) + 1))
               lsr line_bits)
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
                let b = 3 * q in
                let a = Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)) in
                let la = a lsr line_bits and w = Array.unsafe_get refs (b + 2) in
                let set = la land set_mask and old = Array.unsafe_get rset q in
                let e = Array.unsafe_get tags set in
                if e lsr 1 = la then begin
                  if w <> 0 then Array.unsafe_set tags set (e lor 1)
                end
                else if
                  Array.unsafe_get occ set = Bool.to_int (old = set)
                  && (write_allocate || w = 0)
                then begin
                  push t (l1_miss ~write_allocate tags la set e a w)
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
          (* addresses to iteration [!i], and to [!i + 1] for the refs a
             clash left already issued *)
          let d = !i - i0 and issued = !from in
          for r = 0 to nrefs - 1 do
            let b = 3 * r in
            let d = if r < issued then d + 1 else d in
            Array.unsafe_set refs b
              (Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)));
            let set = Array.unsafe_get rset r in
            Array.unsafe_set occ set (Array.unsafe_get occ set - 1)
          done
        end
      done
    end
  done;
  flush t;
  let iters = count * outer_count in
  charge l1.stats ~accesses:(iters * nrefs) ~misses:t.nmiss ~writes:(iters * nwrites)
    ~writebacks:t.nwb;
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

(* The stream kernel: the accesses [lo] to [hi - 1] of [buf] (address at
   [2k], 1 for a write or 0 at [2k + 1]) through L1 by the same step as
   [seq_kernel], the batch having room for their misses.  Returns the
   writes among them.  The loop calls nothing. *)
let stream_kernel t l1 buf ~lo ~hi =
  let tags = l1.tags and line_bits = l1.line_bits and set_mask = l1.set_mask in
  let batch = t.batch and write_allocate = t.write_allocate in
  let nw = ref 0 and p = ref t.pending in
  for k = lo to hi - 1 do
    let a = Array.unsafe_get buf (2 * k) and w = Array.unsafe_get buf ((2 * k) + 1) in
    nw := !nw + w;
    let la = a lsr line_bits in
    let set = la land set_mask in
    let e = Array.unsafe_get tags set in
    if e lsr 1 = la then begin
      if w <> 0 then Array.unsafe_set tags set (e lor 1)
    end
    else begin
      Array.unsafe_set batch !p (l1_miss ~write_allocate tags la set e a w);
      incr p
    end
  done;
  t.pending <- !p;
  !nw

let stream t buf n =
  if n < 0 || 2 * n > Array.length buf then invalid_arg "Fast_sim.stream: n outside the buffer";
  let l1 = t.levels.(0) in
  t.nmiss <- 0;
  t.nwb <- 0;
  let k = ref 0 and writes = ref 0 in
  while !k < n do
    let room = Array.length t.batch - t.pending in
    if room = 0 then flush t
    else begin
      let hi = min n (!k + room) in
      writes := !writes + stream_kernel t l1 buf ~lo:!k ~hi;
      k := hi
    end
  done;
  flush t;
  charge l1.stats ~accesses:n ~misses:t.nmiss ~writes:!writes ~writebacks:t.nwb
