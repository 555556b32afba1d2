(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]) for the paper's machine shape, two
   direct-mapped write-allocate levels.  Same filtered semantics (L2
   only sees L1's misses), same dirty-line accounting, so the per-level
   [Stats.t] match the reference path exactly.  Speed comes from
   [block], which consumes a whole two-loop segment at once: as long as
   no reference crosses an L1 line boundary and every referenced line
   is L1-resident, the iterations are guaranteed hits that touch L2 not
   at all, so they can be accounted in bulk, jumping from one line
   crossing to the next as a per-row calendar of crossings lists them;
   the references that cross at an iteration first leave their lines,
   and one that crosses onto a missing line is installed in place,
   without leaving the bulk path, when no other reference's line sits
   in that L1 set.  It all runs in small loops that call nothing and
   raise nothing ([block]'s sequential iterations and steady phase,
   [stream]'s buffers): each holds both levels' tag arrays, line shifts
   and set masks, and its counts, in locals, and steps L2 where an L1
   miss happens.

   Any other shape (one level, three or more, an associative level, no
   write-allocate, hardware prefetch) is the reference path's: [create]
   rejects the level lists it cannot simulate, and [Interp.run] sends
   such machines to the reference cascade. *)

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
  l1 : level;
  l2 : level;
  (* scratch for [block], grown on demand to the widest ref group seen:
     per ref, interleaved, its current address, its stride, 1 if it
     writes (else 0) and, during a steady phase, the L1 set of its
     current line *)
  mutable refs : int array;
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
     misses): each kernel adds its own as it returns, and [settle]
     charges them *)
  mutable nmiss : int; mutable nwb : int;
  mutable miss2 : int; mutable write2 : int; mutable wb2 : int;
  (* the ref a clash stopped [steady_kernel] at *)
  mutable clash : int;
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

let create geoms =
  let l1, l2 =
    match geoms with
    | [ g1; g2 ] -> (make_level 0 g1, make_level 1 g2)
    | _ ->
        invalid_arg
          (Printf.sprintf "Fast_sim.create: %d levels, only two (L1 and L2) are simulated"
             (List.length geoms))
  in
  {
    l1;
    l2;
    refs = [||];
    cal = [||];
    cal_start = Array.make ((1 lsl l1.line_bits) + 1) 0;
    cal_gap = Array.make (1 lsl l1.line_bits) 0;
    occ = Array.make (l1.set_mask + 1) 0;
    nmiss = 0; nwb = 0; miss2 = 0; write2 = 0; wb2 = 0;
    clash = 0;
    bulk_segments = 0;
    bulk_iterations = 0;
    seq_iterations = 0;
  }

let level_stats t = [ t.l1.stats; t.l2.stats ]

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

(* One access at one level, [w] 1 for a write and 0 for a read; mirrors
   Level.access minus prefetch, under write-allocate.  The outcome is 0
   for a hit, 2 for a miss, 3 for a miss whose fill evicted a dirty
   line: [o lsr 1] counts the miss, [o land 1] the writeback.  Sets are
   in bounds, so the unchecked array accesses are safe.  [step] is the
   one copy of the access logic; [fill] is its miss half on the line
   address, set and tag word [e] already read, which the kernels below
   call after their own L1 tag test. *)
let[@inline] fill tags la set e ~w =
  Array.unsafe_set tags set ((la lsl 1) lor w);
  if e >= 0 && e land 1 = 1 then 3 else 2

let[@inline] step tags ~line_bits ~set_mask ~w a =
  let la = a lsr line_bits in
  let set = la land set_mask in
  let e = Array.unsafe_get tags set in
  if e lsr 1 = la then begin
    if w <> 0 then Array.unsafe_set tags set (e lor 1);
    0
  end
  else fill tags la set e ~w

(* One access through L1 and, on a miss, L2, each level charged at
   once ([visit] is true on a miss). *)
let visit l ~w a =
  let o = step l.tags ~line_bits:l.line_bits ~set_mask:l.set_mask ~w a in
  charge l.stats ~accesses:1 ~misses:(o lsr 1) ~writes:w ~writebacks:(o land 1);
  o <> 0

let access t ~write addr =
  let w = Bool.to_int write in
  if not (visit t.l1 ~w addr) then 0 else if not (visit t.l2 ~w addr) then 1 else 2

(* A [block] or [stream] call zeroes the counts, its kernels add theirs
   as they return ([add_counts]), and [settle] charges them to L1 (with
   the call's [accesses] and [writes]) and L2, once. *)
let start_call t =
  t.nmiss <- 0; t.nwb <- 0; t.miss2 <- 0; t.write2 <- 0; t.wb2 <- 0

let[@inline] add_counts t ~nmiss ~nwb ~miss2 ~write2 ~wb2 =
  t.nmiss <- t.nmiss + nmiss;
  t.nwb <- t.nwb + nwb;
  t.miss2 <- t.miss2 + miss2;
  t.write2 <- t.write2 + write2;
  t.wb2 <- t.wb2 + wb2

let settle t ~accesses ~writes =
  charge t.l1.stats ~accesses ~misses:t.nmiss ~writes ~writebacks:t.nwb;
  charge t.l2.stats ~accesses:t.nmiss ~misses:t.miss2 ~writes:t.write2 ~writebacks:t.wb2

let ensure_scratch t n =
  if Array.length t.refs < 4 * n then t.refs <- Array.make (4 * n) 0

(* The three kernels below share one shape: both levels' tags, line
   shifts and set masks (L2's record, in [stream_kernel]), and the
   call's five counts, are locals; an L1 miss is [fill]ed and then
   stepped through L2 by [step], inlined, and the counts are added to
   [t] once, after the loop.  OCaml keeps no
   value in a register across a call, so a call anywhere in the loop
   (or an exception handler around it) would reload the loop's state
   from the stack at every access.  The values only a miss reads (the
   counts, then L2's) are bound first: where a loop needs more
   registers than there are, this compiler (without flambda) spills the
   earliest-bound values, and bound after them the hit path's keep
   theirs.

   The sequential kernel: up to [iters] whole iterations of the refs in
   [t.refs], access by access, the first iteration from ref [from].
   With [until_hit] it stops after an iteration with no L1 miss.  Each
   ref's tag is tested at its turn (an install can evict a later ref's
   line), and the ref's address advances by its stride.  Returns the
   iterations not run, times two, plus 1 when the last one run had no
   miss and [until_hit].  [start] is the miss count at the start of the
   iteration, or -1 without [until_hit]; an iteration that left it
   unchanged had no miss. *)
let seq_kernel t ~nrefs ~from ~iters ~until_hit =
  let nmiss = ref 0 and nwb = ref 0 and miss2 = ref 0 and write2 = ref 0 and wb2 = ref 0 in
  let tags2 = t.l2.tags and line_bits2 = t.l2.line_bits and set_mask2 = t.l2.set_mask in
  let refs = t.refs and tags = t.l1.tags in
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  let left = ref iters and first = ref from and start = ref (if until_hit then 0 else -1) in
  while !left > 0 do
    for r = !first to nrefs - 1 do
      let b = 4 * r in
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
        nmiss := !nmiss + 1;
        nwb := !nwb + (fill tags la set e ~w land 1);
        let o = step tags2 ~line_bits:line_bits2 ~set_mask:set_mask2 ~w a in
        write2 := !write2 + w;
        miss2 := !miss2 + (o lsr 1);
        wb2 := !wb2 + (o land 1)
      end
    done;
    (* the end of an iteration: a hit throughout stops [until_hit],
       leaving [lnot] the iterations not run *)
    first := 0;
    left := !left - 1;
    if !nmiss = !start then left := lnot !left else if !start >= 0 then start := !nmiss
  done;
  add_counts t ~nmiss:!nmiss ~nwb:!nwb ~miss2:!miss2 ~write2:!write2 ~wb2:!wb2;
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
  let b = ref 0 and stop = 4 * nrefs in
  while
    !b < stop
    &&
    let la = (Array.unsafe_get refs !b - Array.unsafe_get refs (!b + 1)) lsr line_bits in
    let e = Array.unsafe_get tags (la land set_mask) in
    e lsr 1 = la && (e land 1 = 1 || Array.unsafe_get refs (!b + 2) = 0)
  do
    b := !b + 4
  done;
  !b = stop

(* The steady kernel: the steady phase of a row (see [block]) from
   iteration [i0], whose first crossing is [ic], with the addresses in
   [t.refs] kept at [i0], the sets in [t.refs] and [t.occ] set up and the calendar
   built.  It jumps from crossing to crossing, one bulk segment each,
   and runs each crossing pass: the listed refs leave their sets, then
   each in order hits or is installed in place, and lands on its new
   set.  Returns the iteration reached, times two, plus 1 when a clash
   stopped it there, the clashing ref in [t.clash] and the refs not yet
   handled back on their old sets.  [ic] is the crossing being passed,
   [k] to [stop] what is left of its list. *)
let steady_kernel t ~i0 ~ic ~count ~pmask =
  let nmiss = ref 0 and nwb = ref 0 and miss2 = ref 0 and write2 = ref 0 and wb2 = ref 0 in
  let tags2 = t.l2.tags and line_bits2 = t.l2.line_bits and set_mask2 = t.l2.set_mask in
  let refs = t.refs and occ = t.occ in
  let cal = t.cal and cal_start = t.cal_start and cal_gap = t.cal_gap in
  let tags = t.l1.tags and line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  (* as if the pass before [ic] had just ended *)
  let i = ref i0 and ic = ref (ic - 1) and k = ref 0 and stop = ref 0 in
  let segs = ref 0 and clashed = ref false in
  while !ic < count do
    let d = !ic - i0 in
    while !k < !stop do
      let q = Array.unsafe_get cal !k in
      let b = 4 * q in
      let a = Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)) in
      let la = a lsr line_bits in
      let set = la land set_mask in
      let e = Array.unsafe_get tags set in
      if e lsr 1 = la || Array.unsafe_get occ set = 0 then begin
        let w = Array.unsafe_get refs (b + 2) in
        Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
        Array.unsafe_set refs (b + 3) set;
        incr k;
        if e lsr 1 = la then begin
          if w <> 0 then Array.unsafe_set tags set (e lor 1)
        end
        else begin
          nmiss := !nmiss + 1;
          nwb := !nwb + (fill tags la set e ~w land 1);
          let o = step tags2 ~line_bits:line_bits2 ~set_mask:set_mask2 ~w a in
          write2 := !write2 + w;
          miss2 := !miss2 + (o lsr 1);
          wb2 := !wb2 + (o land 1)
        end
      end
      else begin
        (* a clash: [q] and the refs after it go back on their sets *)
        t.clash <- q;
        for j = !k to !stop - 1 do
          let set = Array.unsafe_get refs ((4 * Array.unsafe_get cal j) + 3) in
          Array.unsafe_set occ set (Array.unsafe_get occ set + 1)
        done;
        stop := !k;
        clashed := true
      end
    done;
    if !clashed then ic := count
    else begin
      (* the next crossing pass: its refs leave their sets *)
      let c = next_crossing cal_gap ~pmask ~count (!ic + 1) in
      ic := c;
      if c < count then begin
        if c > !i then begin
          incr segs;
          i := c
        end;
        k := Array.unsafe_get cal_start (c land pmask);
        stop := Array.unsafe_get cal_start ((c land pmask) + 1);
        for j = !k to !stop - 1 do
          let set = Array.unsafe_get refs ((4 * Array.unsafe_get cal j) + 3) in
          Array.unsafe_set occ set (Array.unsafe_get occ set - 1)
        done
      end
    end
  done;
  add_counts t ~nmiss:!nmiss ~nwb:!nwb ~miss2:!miss2 ~write2:!write2 ~wb2:!wb2;
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
   that continue one another are joined into one; the rows are then
   taken one by one, each from its own start, so the work counters are
   those of one call per row.  The per-ref state ([t.refs]) is set up
   once per call: addresses at each row start, and kept across the
   row's phases.

   A row alternates two phases.  The sequential phase runs whole
   iterations access by access, through [seq_kernel].  It ends after an
   iteration that hits throughout, or after its first iteration when
   the probe ([resident]) finds every ref's line of that iteration
   resident, and dirty if written; either way the steady phase starts
   with the invariant: every ref's current line is L1-resident, and
   dirty if the ref writes.

   Exactness of the steady phase ([steady_kernel]): iterations in which
   no ref crosses a line boundary are then hits that reach L2 not at all
   and change no tag state (dirty bits are idempotent), so a
   direct-mapped L1 needs nothing but counting for them.  The row's
   crossing [calendar] names the iterations at which refs move onto
   another line, and which refs do; the phase jumps to the next one, and
   a pass over its list handles them.  Per ref, [t.refs] holds the L1
   set of its current line; [occ] counts the refs per set.  The pass first
   takes every listed ref off its set: its next access is to its new
   line, and no ref returns to a line it has crossed from, so a line
   only such refs sit on is read by no later access.  Then, in order, a
   listed ref's new line hits (its dirty bit set if the ref writes) or,
   when no ref sits in its set, is installed there, its miss counted and
   sent to L2: the evicted line is none a later access reads before
   refilling it, and its writeback is the one the per-access cascade
   counts at that access.  Each ref lands on its new set, so the
   invariant holds and the iteration's later refs hit as assumed;
   duplicate refs cross together, the first installing, the second
   hitting.  On a clash the sequential phase takes over at that
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
   indices are < 4 * nrefs, calendar residues < p, and the input array
   lengths are checked first. *)
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
    ensure_scratch t nrefs;
    let refs = t.refs and occ = t.occ and l1 = t.l1 in
    let line_bits = l1.line_bits and set_mask = l1.set_mask in
    let line = 1 lsl line_bits in
    (* the period is line over the smallest power of two dividing a
       stride below a line; [crossing] sums min(|s|, line); [shared]: one
       calendar fits every row *)
    let low = ref line and crossing = ref 0 and nwrites = ref 0 and shared = ref true in
    for r = 0 to nrefs - 1 do
      let s = strides.(r) in
      refs.((4 * r) + 1) <- s;
      refs.((4 * r) + 2) <- Bool.to_int writes.(r);
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
        Array.unsafe_set refs (4 * r)
          (Array.unsafe_get bases r + (o * Array.unsafe_get outer_strides r))
      done;
      if not bulk then ignore (seq_kernel t ~nrefs ~from:0 ~iters:count ~until_hit:false)
      else begin
        let i = ref 0 in
        (* the first ref of iteration [!i] not yet issued *)
        let from = ref 0 in
        while !i < count do
          (* sequential phase: its first iteration, then the probe, then
             whole iterations up to one that hits throughout *)
          let r = seq_kernel t ~nrefs ~from:!from ~iters:1 ~until_hit:true in
          from := 0;
          incr i;
          if !i < count && r land 1 = 0 && not (resident l1 refs ~nrefs) then begin
            let r = seq_kernel t ~nrefs ~from:0 ~iters:(count - !i) ~until_hit:true in
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
                  ((Array.unsafe_get refs (4 * r) - Array.unsafe_get refs ((4 * r) + 1))
                   lsr line_bits)
                  land set_mask
                in
                Array.unsafe_set occ set (Array.unsafe_get occ set + 1);
                Array.unsafe_set refs ((4 * r) + 3) set
              done;
              let r = steady_kernel t ~i0 ~ic ~count ~pmask in
              i := r lsr 1;
              if r land 1 = 1 then from := t.clash;
              (* addresses to iteration [!i], and to [!i + 1] for the refs
                 a clash left already issued *)
              let d = !i - i0 and issued = !from in
              for r = 0 to nrefs - 1 do
                let b = 4 * r in
                let d = if r < issued then d + 1 else d in
                Array.unsafe_set refs b
                  (Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)));
                let set = Array.unsafe_get refs (b + 3) in
                Array.unsafe_set occ set (Array.unsafe_get occ set - 1)
              done
            end
          end
        done
      end
    done;
    let iters = count * outer_count in
    settle t ~accesses:(iters * nrefs) ~writes:(iters * nwrites);
    t.seq_iterations <- t.seq_iterations + iters - (t.bulk_iterations - bulk_before)
  end

(* The stream kernel: the [n] accesses of [buf] (address at [2k], 1 for
   a write or 0 at [2k + 1]) through L1 and L2 by the same step as
   [seq_kernel].  It keeps L2's record, whose fields only a miss reads,
   in one local: with the three fields bound, the loop index went to
   the stack, which slowed the gathers that mostly hit (EMBAR). *)
let stream_kernel t buf n =
  let nmiss = ref 0 and nwb = ref 0 and miss2 = ref 0 and write2 = ref 0 and wb2 = ref 0 in
  let l2 = t.l2 in
  let tags = t.l1.tags and line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  for j = 0 to n - 1 do
    let a = Array.unsafe_get buf (2 * j) and w = Array.unsafe_get buf ((2 * j) + 1) in
    let la = a lsr line_bits in
    let set = la land set_mask in
    let e = Array.unsafe_get tags set in
    if e lsr 1 = la then begin
      if w <> 0 then Array.unsafe_set tags set (e lor 1)
    end
    else begin
      nmiss := !nmiss + 1;
      nwb := !nwb + (fill tags la set e ~w land 1);
      let o = step l2.tags ~line_bits:l2.line_bits ~set_mask:l2.set_mask ~w a in
      write2 := !write2 + w;
      miss2 := !miss2 + (o lsr 1);
      wb2 := !wb2 + (o land 1)
    end
  done;
  add_counts t ~nmiss:!nmiss ~nwb:!nwb ~miss2:!miss2 ~write2:!write2 ~wb2:!wb2

let stream t buf n =
  if n < 0 || 2 * n > Array.length buf then invalid_arg "Fast_sim.stream: n outside the buffer";
  start_call t;
  stream_kernel t buf n;
  let writes = ref 0 in
  for k = 0 to n - 1 do
    writes := !writes + Array.unsafe_get buf ((2 * k) + 1)
  done;
  settle t ~accesses:n ~writes:!writes
