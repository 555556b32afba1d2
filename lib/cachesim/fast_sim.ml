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
   the references that cross at an iteration first leave their lines,
   and one that crosses onto a missing line is installed in place,
   without leaving the bulk path, when no other reference's line sits
   in that L1 set.  It all runs in small loops that call nothing
   ([block]'s sequential iterations and steady phase, [stream]'s
   buffers); each L1 miss walks L2 and the levels below where it
   happens.

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
  (* the current [block] or [stream] call's L1 misses and writebacks,
     and L2's misses, writes and writebacks (its accesses are L1's
     misses); charged by [settle] *)
  mutable nmiss : int; mutable nwb : int;
  mutable miss2 : int; mutable write2 : int; mutable wb2 : int;
  (* the ref a clash stopped [steady_kernel] at, and the access a kernel
     hands to [cascade] ([(addr land lnot 1) lor write]: lines are >= 4
     bytes, so no level looks at bit 0 of the address; see [Deep]) *)
  mutable clash : int;
  mutable deep : int;
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

let make_level i (geom : Level.geometry) =
  if geom.assoc <> 1 then
    invalid_arg
      (Printf.sprintf "Fast_sim.create: L%d is %d-way, only direct-mapped levels are simulated"
         (i + 1) geom.assoc);
  let line_bits, sets = Level.shape geom in
  if geom.line < 4 then invalid_arg "Fast_sim.create: line smaller than 4 bytes";
  { line_bits; set_mask = sets - 1; tags = Array.make sets (-1); stats = Stats.create () }

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
    nmiss = 0; nwb = 0; miss2 = 0; write2 = 0; wb2 = 0;
    clash = 0;
    deep = 0;
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

(* One access down the cascade from level [from], as a loop: level
   [i+1] only sees level [i]'s misses, and each level visited is charged
   at once.  Returns the index of the level that hit, or the number of
   levels for a main-memory access.  [access] runs it from L1; the
   kernels below run L1 and L2 themselves and reach levels 3.. through
   it. *)
let cascade t ~from ~w addr =
  let levels = t.levels and write_allocate = t.write_allocate in
  let n = Array.length levels in
  let i = ref from in
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

let access t ~write addr = cascade t ~from:0 ~w:(Bool.to_int write) addr

(* A kernel's L1 miss at [a], on the tag word [e] already read: installs
   the line (or not, for a write without write-allocate), counts it, and
   steps L2 by [access_dm] right there.  True when L2 missed too and
   levels lie below it: the caller hands the access on by [Deep].  Exact:
   level i+1 is fed level i's misses, in order, as they happen.  It reads
   L2 and keeps the counts through [t], which leaves the kernels' hit
   path its registers. *)
let[@inline] step_down t tags la set e ~w a =
  let o = miss_dm ~write_allocate:t.write_allocate ~w tags la set e in
  t.nmiss <- t.nmiss + 1;
  t.nwb <- t.nwb + (o land 1);
  Array.length t.levels > 1
  &&
  let l2 = Array.unsafe_get t.levels 1 in
  let la = a lsr l2.line_bits in
  let o = access_dm ~write_allocate:t.write_allocate ~w l2.tags la (la land l2.set_mask) in
  t.write2 <- t.write2 + w;
  t.miss2 <- t.miss2 + (o lsr 1);
  t.wb2 <- t.wb2 + (o land 1);
  o <> 0 && Array.length t.levels > 2

(* The access [step_down] leaves for levels 3..: a kernel records it in
   [t.deep] and raises [Deep] to a handler outside its loops, which runs
   [cascade] from level 2, and goes on from where it stopped.  OCaml
   keeps no value in a register across a call, so a call in the loop
   would reload the loop's state from the stack at every access. *)
exception Deep

let[@inline] deep t ~w a =
  t.deep <- (a land lnot 1) lor w;
  raise_notrace Deep

let[@inline] run_deep t = ignore (cascade t ~from:2 ~w:(t.deep land 1) t.deep)

(* A [block] or [stream] call zeroes the counts, then charges them to
   L1 (with its [accesses] and [writes]) and L2, once. *)
let start_call t =
  t.nmiss <- 0; t.nwb <- 0; t.miss2 <- 0; t.write2 <- 0; t.wb2 <- 0

let settle t l1 ~accesses ~writes =
  charge l1.stats ~accesses ~misses:t.nmiss ~writes ~writebacks:t.nwb;
  if t.nmiss > 0 && Array.length t.levels > 1 then
    charge t.levels.(1).stats ~accesses:t.nmiss ~misses:t.miss2 ~writes:t.write2
      ~writebacks:t.wb2

let ensure_scratch t n =
  if Array.length t.set < n then begin
    t.refs <- Array.make (3 * n) 0;
    t.set <- Array.make n 0
  end

(* The sequential kernel: up to [iters] whole iterations of the refs in
   [t.refs], access by access, the first iteration from ref [from].
   With [until_hit] it stops after an iteration with no L1 miss.  Each
   ref's tag is tested at its turn (an install can evict a later ref's
   line), a miss goes through [step_down], and the ref's address
   advances by its stride.  Returns the iterations not run, times two,
   plus 1 when the last one run had no miss and [until_hit].  [start] is
   the miss count at the start of the iteration, or -1 without
   [until_hit]; an iteration that left it unchanged had no miss.  The
   loop calls nothing; what [Deep] must not lose sits outside it. *)
let seq_kernel t l1 ~nrefs ~from ~iters ~until_hit =
  let left = ref iters and first = ref from and running = ref true in
  let start = ref (if until_hit then t.nmiss else -1) in
  while !running do
    match
      let refs = t.refs and tags = l1.tags in
      let line_bits = l1.line_bits and set_mask = l1.set_mask in
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
            if step_down t tags la set e ~w a then begin
              first := r + 1;
              deep t ~w a
            end
          end
        done;
        (* the end of an iteration: a hit throughout stops [until_hit],
           leaving [lnot] the iterations not run *)
        first := 0;
        left := !left - 1;
        if t.nmiss = !start then left := lnot !left else if !start >= 0 then start := t.nmiss
      done
    with
    | () -> running := false
    | exception Deep -> run_deep t
  done;
  if !left < 0 then ((lnot !left) lsl 1) lor 1 else 0

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

(* The steady kernel: the steady phase of a row (see [block_dm]) from
   iteration [i0], whose first crossing is [ic], with the addresses in
   [t.refs] kept at [i0], [t.set] and [t.occ] set up and the calendar
   built.  It jumps from crossing to crossing, one bulk segment each,
   and runs each crossing pass: the listed refs leave their sets, then
   each in order hits or is installed in place, and lands on its new
   set.  Returns the iteration reached, times two, plus 1 when a clash
   stopped it there, the clashing ref in [t.clash] and the refs not yet
   handled back on their old sets.  Like [seq_kernel], it calls nothing;
   [ic] is the crossing being passed, [k] to [stop] what is left of its
   list. *)
let steady_kernel t l1 ~i0 ~ic ~count ~pmask =
  (* as if the pass before [ic] had just ended *)
  let i = ref i0 and ic = ref (ic - 1) and k = ref 0 and stop = ref 0 in
  let segs = ref 0 and clashed = ref false and running = ref true in
  while !running do
    match
      let refs = t.refs and rset = t.set and occ = t.occ and cal = t.cal in
      let tags = l1.tags and line_bits = l1.line_bits and set_mask = l1.set_mask in
      while !ic < count do
        let d = !ic - i0 in
        while !k < !stop do
          let q = Array.unsafe_get cal !k in
          let b = 3 * q in
          let a = Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)) in
          let la = a lsr line_bits and w = Array.unsafe_get refs (b + 2) in
          let set = la land set_mask in
          let e = Array.unsafe_get tags set in
          if e lsr 1 = la || (Array.unsafe_get occ set = 0 && (t.write_allocate || w = 0))
          then begin
            Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
            Array.unsafe_set rset q set;
            incr k;
            if e lsr 1 = la then begin
              if w <> 0 then Array.unsafe_set tags set (e lor 1)
            end
            else if step_down t tags la set e ~w a then deep t ~w a
          end
          else begin
            (* a clash: [q] and the refs after it go back on their sets *)
            t.clash <- q;
            for j = !k to !stop - 1 do
              let set = Array.unsafe_get rset (Array.unsafe_get cal j) in
              Array.unsafe_set occ set (Array.unsafe_get occ set + 1)
            done;
            stop := !k;
            clashed := true
          end
        done;
        if !clashed then ic := count
        else begin
          (* the next crossing pass: its refs leave their sets *)
          let c = next_crossing t.cal_gap ~pmask ~count (!ic + 1) in
          ic := c;
          if c < count then begin
            if c > !i then begin
              incr segs;
              i := c
            end;
            k := Array.unsafe_get t.cal_start (c land pmask);
            stop := Array.unsafe_get t.cal_start ((c land pmask) + 1);
            for j = !k to !stop - 1 do
              let set = Array.unsafe_get rset (Array.unsafe_get cal j) in
              Array.unsafe_set occ set (Array.unsafe_get occ set - 1)
            done
          end
        end
      done
    with
    | () -> running := false
    | exception Deep -> run_deep t
  done;
  if (not !clashed) && count > !i then begin
    incr segs;
    i := count
  end;
  t.bulk_segments <- t.bulk_segments + !segs;
  t.bulk_iterations <- t.bulk_iterations + !i - i0;
  (!i lsl 1) lor Bool.to_int !clashed

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
   iterations access by access, through [seq_kernel].  It ends after an
   iteration that hits throughout, or after its first iteration when
   the probe ([resident]) finds every ref's line of that iteration
   resident, and dirty if written; either way the steady phase starts
   with the invariant: every ref's current line is L1-resident, and
   dirty if the ref writes.

   Exactness of the steady phase ([steady_kernel]): iterations in which
   no ref crosses a line boundary are then hits that reach no lower
   level and change no tag state (dirty bits are idempotent), so a
   direct-mapped L1 needs nothing but counting for them.  The row's
   crossing [calendar] names the iterations at which refs move onto
   another line, and which refs do; the phase jumps to the next one, and
   a pass over its list handles them.  Per ref, [set] is the L1 set of
   its current line; [occ] counts the refs per set.  The pass first
   takes every listed ref off its set: its next access is to its new
   line, and no ref returns to a line it has crossed from, so a line
   only such refs sit on is read by no later access.  Then, in order, a
   listed ref's new line hits (its dirty bit set if the ref writes) or,
   when no ref sits in its set, is installed there, its miss counted and
   sent down: the evicted line is none a later access reads before
   refilling it, and its writeback is the one the per-access cascade
   counts at that access.  Each ref lands on its new set, so the
   invariant holds and the iteration's later refs hit as assumed;
   duplicate refs cross together, the first installing, the second
   hitting.  On a clash, or a write miss without write-allocate (which
   installs nothing), the sequential phase takes over at that
   iteration, from that ref.

   The calendar is built at a row's first steady phase, and kept for
   the later rows of the call when every moving ref's outer stride is a
   multiple of the line ([shared]); a row with no crossing left takes
   the rest as one bulk segment, without the phase's set-up.  Its
   period [p] is the largest line / gcd(|s|, line) over the refs with
   0 < |s| < line (a ref moving a line or more crosses at every
   iteration).  Where the steady phase cannot pay, every row of the call
   runs through [seq_kernel] alone ([bulk] false):
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
  (* the row [t]'s calendar was built for in this call, -1 for none *)
  let cal_row = ref (-1) in
  let bulk_before = t.bulk_iterations in
  start_call t;
  for o = 0 to outer_count - 1 do
    for r = 0 to nrefs - 1 do
      Array.unsafe_set refs (3 * r)
        (Array.unsafe_get bases r + (o * Array.unsafe_get outer_strides r))
    done;
    if not bulk then ignore (seq_kernel t l1 ~nrefs ~from:0 ~iters:count ~until_hit:false)
    else begin
      let i = ref 0 in
      (* the first ref of iteration [!i] not yet issued *)
      let from = ref 0 in
      while !i < count do
        (* sequential phase: its first iteration, then the probe, then
           whole iterations up to one that hits throughout *)
        let r = seq_kernel t l1 ~nrefs ~from:!from ~iters:1 ~until_hit:true in
        from := 0;
        incr i;
        if !i < count && r land 1 = 0 && not (resident l1 refs ~nrefs) then begin
          let r = seq_kernel t l1 ~nrefs ~from:0 ~iters:(count - !i) ~until_hit:true in
          i := count - (r lsr 1)
        end;
        if !i < count then begin
          if !cal_row < 0 || ((not shared) && !cal_row <> o) then begin
            calendar t ~bases ~strides ~outer_strides ~line_bits ~p o;
            cal_row := o
          end;
          (* steady phase from [i0], with the addresses kept at [i0];
             the current lines are those of iteration [i0 - 1] *)
          let i0 = !i in
          let ic = next_crossing t.cal_gap ~pmask ~count i0 in
          if ic = count then begin
            (* no crossing left: the rest of the row, whose addresses
               the next row resets, is one bulk segment *)
            t.bulk_segments <- t.bulk_segments + 1;
            t.bulk_iterations <- t.bulk_iterations + count - i0;
            i := count
          end
          else begin
            for r = 0 to nrefs - 1 do
              let set =
                ((Array.unsafe_get refs (3 * r) - Array.unsafe_get refs ((3 * r) + 1))
                 lsr line_bits)
                land set_mask
              in
              Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
              Array.unsafe_set rset r set
            done;
            let r = steady_kernel t l1 ~i0 ~ic ~count ~pmask in
            i := r lsr 1;
            if r land 1 = 1 then from := t.clash;
            (* addresses to iteration [!i], and to [!i + 1] for the refs
               a clash left already issued *)
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
        end
      done
    end
  done;
  let iters = count * outer_count in
  settle t l1 ~accesses:(iters * nrefs) ~writes:(iters * nwrites);
  t.seq_iterations <- t.seq_iterations + iters - (t.bulk_iterations - bulk_before)

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

(* The stream kernel: the [n] accesses of [buf] (address at [2k], 1 for
   a write or 0 at [2k + 1]) through L1 and below by the same step as
   [seq_kernel]; [k] is the next access to issue. *)
let stream_kernel t l1 buf n =
  let k = ref 0 and running = ref true in
  while !running do
    match
      let tags = l1.tags and line_bits = l1.line_bits and set_mask = l1.set_mask in
      for j = !k to n - 1 do
        let a = Array.unsafe_get buf (2 * j) and w = Array.unsafe_get buf ((2 * j) + 1) in
        let la = a lsr line_bits in
        let set = la land set_mask in
        let e = Array.unsafe_get tags set in
        if e lsr 1 = la then begin
          if w <> 0 then Array.unsafe_set tags set (e lor 1)
        end
        else if step_down t tags la set e ~w a then begin
          k := j + 1;
          deep t ~w a
        end
      done
    with
    | () -> running := false
    | exception Deep -> run_deep t
  done

let stream t buf n =
  if n < 0 || 2 * n > Array.length buf then invalid_arg "Fast_sim.stream: n outside the buffer";
  let l1 = t.levels.(0) in
  start_call t;
  stream_kernel t l1 buf n;
  let writes = ref 0 in
  for k = 0 to n - 1 do
    writes := !writes + Array.unsafe_get buf ((2 * k) + 1)
  done;
  settle t l1 ~accesses:n ~writes:!writes
