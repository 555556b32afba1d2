(* Fast simulation backend: an optimized replica of the reference
   cascade ([Hierarchy] over [Level]) for the paper's machine shape, two
   direct-mapped write-allocate levels.  Same filtered semantics (L2
   only sees L1's misses), same dirty-line accounting, so the per-level
   [Stats.t] match the reference path exactly.  Speed comes from
   [block], which consumes a whole two-loop segment at once: as long as
   no reference crosses an L1 line boundary and every referenced line
   is L1-resident, the iterations are guaranteed hits that touch L2 not
   at all, so they can be accounted in bulk, jumping from one line
   crossing to the next as a per-row calendar of crossings lists them.
   A row's bases, strides and count prove, before it runs, over which
   iterations no two references can hold different lines in one L1 set;
   over those, a crossing reference's line hits or is installed in
   place, one tag check each, without leaving the bulk path.  It all
   runs in small loops that call nothing and raise nothing ([block]'s
   sequential iterations and steady phase, [stream]'s buffers): each
   holds both levels' tag arrays, line shifts and set masks, and its
   counts, in locals, and steps L2 where an L1 miss happens.

   Any other shape (one level, three or more, an associative level, no
   write-allocate, hardware prefetch) is the reference path's:
   [supports] says which shapes this backend takes, [create] rejects the
   others, and [Interp.run] sends them to the reference cascade. *)

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
     writes (else 0), and its steady write bit: 1 if it or a later ref
     that duplicates it writes, else 0, or -1 when it duplicates an
     earlier ref (see [prove]) *)
  mutable refs : int array;
  (* [block]'s clash proof (see [prove]), grown on demand: the call's
     pairs of refs that may clash, three entries each, and the current
     row's suspect pairs, two entries each *)
  mutable pairs : int array;
  mutable suspects : int array;
  (* the crossing calendar of [block]'s current row (see [calendar]):
     ref lists per residue, list starts (L1 line + 1 entries), and
     distance to the next non-empty residue (L1 line entries) *)
  mutable cal : int array;
  cal_start : int array;
  cal_gap : int array;
  (* the current [block] or [stream] call's L1 misses and writebacks,
     and L2's misses, writes and writebacks (its accesses are L1's
     misses): each kernel adds its own as it returns, and [settle]
     charges them *)
  mutable nmiss : int; mutable nwb : int;
  mutable miss2 : int; mutable write2 : int; mutable wb2 : int;
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

(* The two levels of a list this backend simulates, or why it cannot:
   the one place that decides, read by [supports] and [create]. *)
let levels ~write_allocate ~prefetch geoms =
  let level i (g : Level.geometry) =
    if g.assoc <> 1 then
      Error
        (Printf.sprintf "L%d is %d-way, only direct-mapped levels are simulated" (i + 1)
           g.assoc)
    else
      match Level.shape g with
      | exception Invalid_argument msg -> Error msg
      | _ -> if g.line < 4 then Error "line smaller than 4 bytes" else Ok g
  in
  if not write_allocate then Error "no-write-allocate levels are not simulated"
  else if prefetch then Error "next-line prefetch is not simulated"
  else
    match geoms with
    | [ g1; g2 ] ->
        Result.bind (level 0 g1) (fun g1 -> Result.map (fun g2 -> (g1, g2)) (level 1 g2))
    | _ ->
        Error
          (Printf.sprintf "%d levels, only two (L1 and L2) are simulated"
             (List.length geoms))

let supports ~write_allocate ~prefetch geoms =
  Result.is_ok (levels ~write_allocate ~prefetch geoms)

let make_level (geom : Level.geometry) =
  let line_bits, sets = Level.shape geom in
  { line_bits; set_mask = sets - 1; tags = Array.make sets (-1); stats = Stats.create () }

let create geoms =
  match levels ~write_allocate:true ~prefetch:false geoms with
  | Error msg -> invalid_arg ("Fast_sim.create: " ^ msg)
  | Ok (g1, g2) ->
      let l1 = make_level g1 and l2 = make_level g2 in
      {
        l1;
        l2;
        refs = [||];
        pairs = [||];
        suspects = [||];
        cal = [||];
        cal_start = Array.make ((1 lsl l1.line_bits) + 1) 0;
        cal_gap = Array.make (1 lsl l1.line_bits) 0;
        nmiss = 0; nwb = 0; miss2 = 0; write2 = 0; wb2 = 0;
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
   [t.refs], access by access.  With [until_hit] it stops after an
   iteration with no L1 miss.  Each ref's tag is tested at its turn (an
   install can evict a later ref's line), and the ref's address
   advances by its stride.  Returns the iterations not run, times two,
   plus 1 when the last one run had no miss and [until_hit].  [start]
   is the miss count at the start of the iteration, or -1 without
   [until_hit]; an iteration that left it unchanged had no miss. *)
let seq_kernel t ~nrefs ~iters ~until_hit =
  let nmiss = ref 0 and nwb = ref 0 and miss2 = ref 0 and write2 = ref 0 and wb2 = ref 0 in
  let tags2 = t.l2.tags and line_bits2 = t.l2.line_bits and set_mask2 = t.l2.set_mask in
  let refs = t.refs and tags = t.l1.tags in
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  let left = ref iters and start = ref (if until_hit then 0 else -1) in
  while !left > 0 do
    for r = 0 to nrefs - 1 do
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
    left := !left - 1;
    if !nmiss = !start then left := lnot !left else if !start >= 0 then start := !nmiss
  done;
  add_counts t ~nmiss:!nmiss ~nwb:!nwb ~miss2:!miss2 ~write2:!write2 ~wb2:!wb2;
  if !left < 0 then ((lnot !left) lsl 1) lor 1 else 0

(* --- the clash proof ---------------------------------------------------

   Two refs clash at an iteration when their lines differ and share an
   L1 set: their line distance is a nonzero multiple of the set count.
   Addresses [d] bytes apart are [d asr line_bits] or one more lines
   apart, so byte distances in [lo, hi] give line distances in
   [lo asr line_bits, ceil (hi / line)]; [may_clash] tests whether that
   range holds a nonzero multiple of the set count (with a power-of-two
   count, [(x + set_mask) land lnot set_mask] is the first multiple at or
   above [x]).  A pair's byte distance over a row is [d0 + j * ds],
   linear in the iteration [j]. *)
let[@inline] may_clash ~line_bits ~set_mask lo hi =
  let lo = lo asr line_bits and hi = (hi + (1 lsl line_bits) - 1) asr line_bits in
  let m = (lo + set_mask) land lnot set_mask in
  m <= hi && (m <> 0 || set_mask < hi)

(* whether the pair may clash at some iteration below [count] *)
let[@inline] may_clash_in ~line_bits ~set_mask ~count d0 ds =
  let d1 = d0 + ((count - 1) * ds) in
  if ds >= 0 then may_clash ~line_bits ~set_mask d0 d1
  else may_clash ~line_bits ~set_mask d1 d0

(* The first iteration at or after [j] at which the pair may clash
   ([max_int] for never), and, for a pair that may clash at [j], the
   first iteration after [j] past that clash.  Both orient the distance
   to grow ([sg]): which side is the first ref does not matter to a
   clash.  Not clashing at [j], with lines [k] or [k + 1] apart, the
   pair may clash next where the distance reaches beyond [m - 1] lines,
   [m] the first nonzero multiple of the set count above [k] (were [k]
   one, the pair would clash at [j] already).  Clashing at [j], it is
   past the largest multiple [m] at or below the upper end once the
   distance reaches [m + 1] lines. *)
let first_clash ~line_bits ~set_mask d0 ds j =
  let d = d0 + (j * ds) in
  if may_clash ~line_bits ~set_mask d d then j
  else if ds = 0 then max_int
  else
    let sg = if ds < 0 then -1 else 1 in
    let d0 = sg * d0 and ds = sg * ds in
    let m = (((sg * d) asr line_bits) + set_mask + 1) land lnot set_mask in
    let m = if m = 0 then set_mask + 1 else m in
    ((((m - 1) lsl line_bits) - d0) / ds) + 1

let past_clash ~line_bits ~set_mask d0 ds j =
  if ds = 0 then max_int
  else
    let sg = if ds < 0 then -1 else 1 in
    let d0 = sg * d0 and ds = sg * ds in
    let hi = (d0 + (j * ds) + (1 lsl line_bits) - 1) asr line_bits in
    let x = (((hi land lnot set_mask) + 1) lsl line_bits) - d0 in
    (x + ds - 1) / ds

(* The proof's per-call part.  It marks in [t.refs] the refs that
   duplicate an earlier one (same base, stride and outer stride: the same
   address at every iteration of every row), folding a duplicate's write
   bit into the steady write bit of the first; and it lists in [t.pairs]
   every pair of other refs, as its distance at iteration 0 of row 0, per
   row and per iteration, except the pairs whose distance is the same in
   every row and that never clash.  Returns the pairs listed. *)
let prove t ~bases ~strides ~outer_strides ~nrefs ~count =
  let most = nrefs * (nrefs - 1) / 2 in
  if Array.length t.pairs < 3 * most then begin
    t.pairs <- Array.make (3 * most) 0;
    t.suspects <- Array.make (2 * most) 0
  end;
  let refs = t.refs and pairs = t.pairs in
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  for q = 0 to nrefs - 1 do
    let b = 4 * q in
    refs.(b + 3) <- refs.(b + 2);
    let r = ref 0 in
    while
      !r < q
      && (refs.((4 * !r) + 3) < 0
         || bases.(!r) <> bases.(q)
         || strides.(!r) <> strides.(q)
         || outer_strides.(!r) <> outer_strides.(q))
    do
      incr r
    done;
    if !r < q then begin
      refs.((4 * !r) + 3) <- refs.((4 * !r) + 3) lor refs.(b + 2);
      refs.(b + 3) <- -1
    end
  done;
  let n = ref 0 in
  for q = 1 to nrefs - 1 do
    if refs.((4 * q) + 3) >= 0 then
      for r = 0 to q - 1 do
        let d0 = bases.(q) - bases.(r)
        and dos = outer_strides.(q) - outer_strides.(r)
        and ds = strides.(q) - strides.(r) in
        if
          refs.((4 * r) + 3) >= 0
          && (dos <> 0 || may_clash_in ~line_bits ~set_mask ~count d0 ds)
        then begin
          pairs.(3 * !n) <- d0;
          pairs.((3 * !n) + 1) <- dos;
          pairs.((3 * !n) + 2) <- ds;
          incr n
        end
      done
  done;
  !n

(* The per-row part: lists in [t.suspects] the pairs that may clash in
   row [o], as their distance at the row's iteration 0 and per
   iteration.  Returns how many; a row with none is cleared. *)
let row_suspects t ~npairs ~count o =
  let pairs = t.pairs and sus = t.suspects in
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  let n = ref 0 in
  for p = 0 to npairs - 1 do
    let dos = Array.unsafe_get pairs ((3 * p) + 1)
    and ds = Array.unsafe_get pairs ((3 * p) + 2) in
    let d0 = Array.unsafe_get pairs (3 * p) + (o * dos) in
    if dos = 0 || may_clash_in ~line_bits ~set_mask ~count d0 ds then begin
      Array.unsafe_set sus (2 * !n) d0;
      Array.unsafe_set sus ((2 * !n) + 1) ds;
      incr n
    end
  done;
  !n

(* The first iteration at or after [j] at which a suspect pair may
   clash, or [count] *)
let clash_from t ~nsus ~count j =
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask and sus = t.suspects in
  let lim = ref count in
  for p = 0 to nsus - 1 do
    let c = first_clash ~line_bits ~set_mask sus.(2 * p) sus.((2 * p) + 1) j in
    if c < !lim then lim := c
  done;
  !lim

(* The first iteration past every clash a suspect pair may have at
   [j], or [count] *)
let past_clashes t ~nsus ~count j =
  let line_bits = t.l1.line_bits and set_mask = t.l1.set_mask and sus = t.suspects in
  let e = ref (j + 1) in
  for p = 0 to nsus - 1 do
    let d0 = sus.(2 * p) and ds = sus.((2 * p) + 1) in
    let d = d0 + (j * ds) in
    if may_clash ~line_bits ~set_mask d d then begin
      let x = past_clash ~line_bits ~set_mask d0 ds j in
      if x > !e then e := x
    end
  done;
  if !e < count then !e else count

(* The crossing calendar of row [o] of a [block] call, with period [p]
   (a power of two, at most the L1 line): for each residue [rho < p],
   [t.cal.(t.cal_start.(rho)) .. t.cal.(t.cal_start.(rho + 1) - 1)] are
   the refs, in order, whose L1 line at iteration [j] differs from their
   line at [j - 1] for every [j] of the row with [j land (p - 1) = rho],
   and [t.cal_gap.(rho)] is the distance from [rho] to the first residue
   at or after it (cyclically) whose list is not empty, [max_int] when
   none is.  A ref that duplicates an earlier one crosses with it and is
   left out.  A ref's offset within its line at iteration [j] is
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
      if s <> 0 && t.refs.((4 * r) + 3) >= 0 && a lsr line_bits <> (a + s) lsr line_bits
      then begin
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
   calendar's [gap], or [stop] *)
let[@inline] next_crossing gap ~pmask ~stop j =
  let g = Array.unsafe_get gap (j land pmask) in
  if g >= stop - j then stop else j + g

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
   iteration [i0] up to [stop], over which no two refs may clash, with
   the addresses in [t.refs] kept at [i0] and the calendar built; [ic]
   is its first crossing.  It jumps from crossing to crossing, one bulk
   segment each, and runs each crossing pass: each listed ref's new line
   hits, its dirty bit set by the ref's steady write bit, or is installed
   in place with that bit, its miss sent to L2 with the ref's own. *)
let steady_kernel t ~i0 ~ic ~stop ~pmask =
  let nmiss = ref 0 and nwb = ref 0 and miss2 = ref 0 and write2 = ref 0 and wb2 = ref 0 in
  let tags2 = t.l2.tags and line_bits2 = t.l2.line_bits and set_mask2 = t.l2.set_mask in
  let refs = t.refs in
  let cal = t.cal and cal_start = t.cal_start and cal_gap = t.cal_gap in
  let tags = t.l1.tags and line_bits = t.l1.line_bits and set_mask = t.l1.set_mask in
  let i = ref i0 and c = ref ic and segs = ref 0 in
  while !c < stop do
    let d = !c - i0 and rho = !c land pmask in
    if !c > !i then begin
      incr segs;
      i := !c
    end;
    for k = Array.unsafe_get cal_start rho to Array.unsafe_get cal_start (rho + 1) - 1 do
      let b = 4 * Array.unsafe_get cal k in
      let a = Array.unsafe_get refs b + (d * Array.unsafe_get refs (b + 1)) in
      let la = a lsr line_bits in
      let set = la land set_mask in
      let e = Array.unsafe_get tags set in
      if e lsr 1 = la then begin
        if Array.unsafe_get refs (b + 3) <> 0 then Array.unsafe_set tags set (e lor 1)
      end
      else begin
        let w = Array.unsafe_get refs (b + 2) in
        nmiss := !nmiss + 1;
        nwb := !nwb + (fill tags la set e ~w:(Array.unsafe_get refs (b + 3)) land 1);
        let o = step tags2 ~line_bits:line_bits2 ~set_mask:set_mask2 ~w a in
        write2 := !write2 + w;
        miss2 := !miss2 + (o lsr 1);
        wb2 := !wb2 + (o land 1)
      end
    done;
    c := next_crossing cal_gap ~pmask ~stop (!c + 1)
  done;
  add_counts t ~nmiss:!nmiss ~nwb:!nwb ~miss2:!miss2 ~write2:!write2 ~wb2:!wb2;
  if stop > !i then incr segs;
  t.bulk_segments <- t.bulk_segments + !segs;
  t.bulk_iterations <- t.bulk_iterations + stop - i0

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
   a pass over its list handles them, in order: a listed ref's new line
   hits (its dirty bit set if the ref writes) or is installed, its miss
   counted and sent to L2.  The phase runs only over iterations at which
   the clash proof ([prove], [row_suspects]) finds that no two refs may
   hold different lines in one L1 set.  There an install evicts no
   line a ref holds at that iteration; it may evict the line a listed
   ref later in the pass is leaving, which no later access reads (no ref
   returns to a line it has crossed from), and whose writeback is the
   one the per-access cascade counts at that access.  So the invariant
   holds after every pass and the iteration's later refs hit as assumed;
   the proof needs no slack around an iteration, since the lines it
   compares are the ones the refs hold at that iteration.  A ref that
   duplicates an earlier one is the earlier one's next access to the
   same line, a hit: it leaves the calendar, its write bit goes into
   the earlier one's dirty bit, and L2 sees the earlier one's.

   A row the proof does not clear runs its steady phases only up to the
   first iteration at which a pair may clash ([clash_from]); from there
   it runs sequentially past the clashes possible there
   ([past_clashes]), then starts over with the sequential phase, whose
   next steady phase asks the proof again.

   The proof's per-call part runs at the call's first steady phase (a
   call whose rows never hit throughout, as APPBT's mostly do, pays
   none of it), its per-row part at a row's first steady phase with a
   crossing.  The calendar is built at a row's first steady phase, and
   kept for the later rows of the call when every moving ref's outer
   stride is a multiple of the line ([shared]); a steady phase with no crossing is
   one bulk segment, without the kernel.  Its period [p] is the largest
   line / gcd(|s|, line) over the refs with 0 < |s| < line (a ref moving
   a line or more crosses at every iteration).  Where the steady phase
   cannot pay, every row of the call runs through [seq_kernel] alone
   ([bulk] false), without the proof:
   - when half or more of the accesses cross a line (a ref crosses at
     min(|s|, line) / line of the iterations): a crossing pass then
     costs what the sequential iterations it replaces cost;
   - when a calendar would serve fewer than four periods of iterations:
     the row is shorter than that, and the call's rows either need
     calendars of their own or are that short all together;
   - when an address of the call may lie beyond 2^60 either way ([tame]
     false: a base, outer stride times rows or stride times count beyond
     2^58): within it, a pair's byte distance is linear in the row and
     the iteration, without wrapping, as the proof assumes (that
     negative addresses are high lines changes no line distance modulo
     the set count, nor whether it is 0).

   Unchecked array accesses: sets are masked by [set_mask]; scratch
   indices are < 4 * nrefs, pair indices below the pairs listed,
   calendar residues < p, and the input array lengths are checked
   first. *)
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
    let refs = t.refs and l1 = t.l1 in
    let line_bits = l1.line_bits in
    let line = 1 lsl line_bits in
    (* the period is line over the smallest power of two dividing a
       stride below a line; [crossing] sums min(|s|, line); [shared]: one
       calendar fits every row *)
    let low = ref line and crossing = ref 0 and nwrites = ref 0 and shared = ref true in
    let tame = ref true and reach = 1 lsl 58 in
    let reach_o = reach / outer_count and reach_s = reach / count in
    for r = 0 to nrefs - 1 do
      let s = strides.(r) and b = bases.(r) and os = outer_strides.(r) in
      if b < -reach || b > reach || os < -reach_o || os > reach_o || s < -reach_s || s > reach_s
      then tame := false;
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
      && !tame
    in
    (* the call's proof pairs, listed at its first steady phase *)
    let npairs = ref (-1) in
    (* the row [t]'s calendar was built for in this call, -1 for none *)
    let cal_row = ref (-1) in
    let bulk_before = t.bulk_iterations in
    start_call t;
    for o = 0 to outer_count - 1 do
      for r = 0 to nrefs - 1 do
        Array.unsafe_set refs (4 * r)
          (Array.unsafe_get bases r + (o * Array.unsafe_get outer_strides r))
      done;
      if not bulk then ignore (seq_kernel t ~nrefs ~iters:count ~until_hit:false)
      else begin
        (* the row's suspect pairs, counted at its first crossing pass *)
        let nsus = ref (-1) in
        let i = ref 0 in
        while !i < count do
          (* sequential phase: its first iteration, then the probe, then
             whole iterations up to one that hits throughout *)
          let r = seq_kernel t ~nrefs ~iters:1 ~until_hit:true in
          incr i;
          if !i < count && r land 1 = 0 && not (resident l1 refs ~nrefs) then begin
            let r = seq_kernel t ~nrefs ~iters:(count - !i) ~until_hit:true in
            i := count - (r lsr 1)
          end;
          if !i < count then begin
            (* steady phase from [i0] to [stop], with the addresses kept
               at [i0]; the current lines are those of iteration [i0 - 1] *)
            let i0 = !i in
            if !npairs < 0 then npairs := prove t ~bases ~strides ~outer_strides ~nrefs ~count;
            if !cal_row < 0 || ((not shared) && !cal_row <> o) then begin
              calendar t ~bases ~strides ~outer_strides ~line_bits ~p o;
              cal_row := o
            end;
            let ic = next_crossing t.cal_gap ~pmask ~stop:count i0 in
            if ic = count then begin
              (* no crossing left, so no install and no clash: the rest
                 of the row, whose addresses the next row resets, is one
                 bulk segment *)
              t.bulk_segments <- t.bulk_segments + 1;
              t.bulk_iterations <- t.bulk_iterations + count - i0;
              i := count
            end
            else begin
              if !nsus < 0 then nsus := row_suspects t ~npairs:!npairs ~count o;
              let nsus = !nsus in
              let stop = if nsus = 0 then count else clash_from t ~nsus ~count i0 in
              if stop = i0 then begin
                (* a pair may clash at [i0]: sequential past its clashes *)
                let e = past_clashes t ~nsus ~count i0 in
                ignore (seq_kernel t ~nrefs ~iters:(e - i0) ~until_hit:false);
                i := e
              end
              else begin
                if ic < stop then steady_kernel t ~i0 ~ic ~stop ~pmask
                else begin
                  t.bulk_segments <- t.bulk_segments + 1;
                  t.bulk_iterations <- t.bulk_iterations + stop - i0
                end;
                i := stop;
                (* addresses to [stop]; the next row resets them *)
                if stop < count then
                  for r = 0 to nrefs - 1 do
                    let b = 4 * r in
                    Array.unsafe_set refs b
                      (Array.unsafe_get refs b + ((stop - i0) * Array.unsafe_get refs (b + 1)))
                  done
              end
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
