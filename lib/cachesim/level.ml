type geometry = {
  size : int;
  line : int;
  assoc : int;
}

type t = {
  assoc : int;
  write_allocate : bool;
  prefetch_next_line : bool;
  line_bits : int;
  set_mask : int;
  (* tags.(set * assoc + way) holds the line-granule address resident in
     that way, or -1 when the way is empty. *)
  tags : int array;
  (* last_use.(set * assoc + way) is the logical time of the last access,
     used for LRU victim selection. *)
  last_use : int array;
  dirty : bool array;
  (* tagged prefetch: set on lines installed by the prefetcher; the first
     demand hit re-arms the next-line prefetch *)
  prefetched : bool array;
  mutable clock : int;
  stats : Stats.t;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let shape geom =
  if not (is_pow2 geom.size) then invalid_arg "Level.shape: size not a power of two";
  if not (is_pow2 geom.line) then invalid_arg "Level.shape: line not a power of two";
  if geom.line > geom.size then invalid_arg "Level.shape: line larger than cache";
  if geom.assoc < 1 then invalid_arg "Level.shape: associativity < 1";
  let n_lines = geom.size / geom.line in
  if n_lines mod geom.assoc <> 0 then
    invalid_arg "Level.shape: associativity does not divide line count";
  let n_sets = n_lines / geom.assoc in
  if not (is_pow2 n_sets) then invalid_arg "Level.shape: set count not a power of two";
  let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
  (log2 0 geom.line, n_sets)

let create ?(write_allocate = true) ?(prefetch_next_line = false) geom =
  let line_bits, n_sets = shape geom in
  let n_lines = n_sets * geom.assoc in
  {
    assoc = geom.assoc;
    write_allocate;
    prefetch_next_line;
    line_bits;
    set_mask = n_sets - 1;
    tags = Array.make n_lines (-1);
    last_use = Array.make n_lines 0;
    dirty = Array.make n_lines false;
    prefetched = Array.make n_lines false;
    clock = 0;
    stats = Stats.create ();
  }

let stats t = t.stats

(* The slot of the set starting at [base] that holds [line_addr], or -1. *)
let[@inline] find t base line_addr =
  let stop = base + t.assoc and s = ref base in
  while !s < stop && t.tags.(!s) <> line_addr do incr s done;
  if !s < stop then !s else -1

(* The LRU slot of the set starting at [base]: the smallest last-use
   time; empty slots (last_use 0, tag -1) are naturally chosen first. *)
let[@inline] victim t base =
  let v = ref base in
  for s = base + 1 to base + t.assoc - 1 do
    if t.last_use.(s) < t.last_use.(!v) then v := s
  done;
  !v

let install ?(prefetch = false) t slot line_addr ~write =
  if t.tags.(slot) >= 0 && t.dirty.(slot) then Stats.record_writeback t.stats;
  t.tags.(slot) <- line_addr;
  t.dirty.(slot) <- write;
  t.prefetched.(slot) <- prefetch;
  t.last_use.(slot) <- t.clock

(* Install a line without touching the stats (prefetch path). *)
let install_line t line_addr =
  let base = (line_addr land t.set_mask) * t.assoc in
  if find t base line_addr < 0 then
    install ~prefetch:true t (victim t base) line_addr ~write:false

let access t ~write addr =
  let line_addr = addr lsr t.line_bits in
  let base = (line_addr land t.set_mask) * t.assoc in
  t.clock <- t.clock + 1;
  let slot = find t base line_addr in
  let hit = slot >= 0 in
  if hit then begin
    t.last_use.(slot) <- t.clock;
    if write then t.dirty.(slot) <- true;
    if t.prefetched.(slot) then begin
      t.prefetched.(slot) <- false;
      install_line t (line_addr + 1)
    end
  end
  else begin
    if (not write) || t.write_allocate then install t (victim t base) line_addr ~write;
    if t.prefetch_next_line then install_line t (line_addr + 1)
  end;
  Stats.record ~write t.stats ~hit;
  hit

let resident_lines t =
  Array.to_list t.tags
  |> List.filter (fun tag -> tag >= 0)
  |> List.map (fun tag -> tag lsl t.line_bits)
