type geometry = {
  size : int;
  line : int;
  assoc : int;
}

type t = {
  geom : geometry;
  write_allocate : bool;
  prefetch_next_line : bool;
  line_bits : int;
  set_mask : int;
  (* tags.(set * assoc + way) holds the line-granule address resident in
     that way, or -1 when the way is empty. *)
  tags : int array;
  (* last_use.(set * assoc + way) is the logical time of the last access,
     used for LRU victim selection in associative configurations. *)
  last_use : int array;
  dirty : bool array;
  (* tagged prefetch: set on lines installed by the prefetcher; the first
     demand hit re-arms the next-line prefetch *)
  prefetched : bool array;
  mutable clock : int;
  stats : Stats.t;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(write_allocate = true) ?(prefetch_next_line = false) geom =
  if not (is_pow2 geom.size) then invalid_arg "Level.create: size not a power of two";
  if not (is_pow2 geom.line) then invalid_arg "Level.create: line not a power of two";
  if geom.line > geom.size then invalid_arg "Level.create: line larger than cache";
  if geom.assoc < 1 then invalid_arg "Level.create: associativity < 1";
  let n_lines = geom.size / geom.line in
  if n_lines mod geom.assoc <> 0 then
    invalid_arg "Level.create: associativity does not divide line count";
  let n_sets = n_lines / geom.assoc in
  if not (is_pow2 n_sets) then invalid_arg "Level.create: set count not a power of two";
  {
    geom;
    write_allocate;
    prefetch_next_line;
    line_bits = log2 geom.line;
    set_mask = n_sets - 1;
    tags = Array.make n_lines (-1);
    last_use = Array.make n_lines 0;
    dirty = Array.make n_lines false;
    prefetched = Array.make n_lines false;
    clock = 0;
    stats = Stats.create ();
  }

let stats t = t.stats

let install ?(prefetch = false) t slot line_addr ~write =
  if t.tags.(slot) >= 0 && t.dirty.(slot) then Stats.record_writeback t.stats;
  t.tags.(slot) <- line_addr;
  t.dirty.(slot) <- write;
  t.prefetched.(slot) <- prefetch;
  t.last_use.(slot) <- t.clock

(* Install a line without touching the stats (prefetch path). *)
let install_line t line_addr =
  let set = line_addr land t.set_mask in
  let assoc = t.geom.assoc in
  if assoc = 1 then begin
    if t.tags.(set) <> line_addr then
      install ~prefetch:true t set line_addr ~write:false
  end
  else begin
    let base = set * assoc in
    let rec find way =
      if way = assoc then -1
      else if t.tags.(base + way) = line_addr then way
      else find (way + 1)
    in
    if find 0 < 0 then begin
      let victim = ref 0 in
      for w = 1 to assoc - 1 do
        if t.last_use.(base + w) < t.last_use.(base + !victim) then victim := w
      done;
      install ~prefetch:true t (base + !victim) line_addr ~write:false
    end
  end

let access t ?(write = false) addr =
  let line_addr = addr lsr t.line_bits in
  let set = line_addr land t.set_mask in
  let assoc = t.geom.assoc in
  t.clock <- t.clock + 1;
  if assoc = 1 then begin
    (* Direct-mapped fast path: one candidate way. *)
    let hit = t.tags.(set) = line_addr in
    if hit then begin
      if write then t.dirty.(set) <- true;
      if t.prefetched.(set) then begin
        t.prefetched.(set) <- false;
        install_line t (line_addr + 1)
      end
    end
    else begin
      if (not write) || t.write_allocate then install t set line_addr ~write;
      if t.prefetch_next_line then install_line t (line_addr + 1)
    end;
    Stats.record ~write t.stats ~hit;
    hit
  end
  else begin
    let base = set * assoc in
    let rec find way = if way = assoc then -1
      else if t.tags.(base + way) = line_addr then way
      else find (way + 1)
    in
    let way = find 0 in
    if way >= 0 then begin
      t.last_use.(base + way) <- t.clock;
      if write then t.dirty.(base + way) <- true;
      if t.prefetched.(base + way) then begin
        t.prefetched.(base + way) <- false;
        install_line t (line_addr + 1)
      end;
      Stats.record ~write t.stats ~hit:true;
      true
    end
    else begin
      if (not write) || t.write_allocate then begin
        (* LRU victim: the way with the smallest last-use time; empty
           ways (last_use 0, tag -1) are naturally chosen first. *)
        let victim = ref 0 in
        for w = 1 to assoc - 1 do
          if t.last_use.(base + w) < t.last_use.(base + !victim) then victim := w
        done;
        install t (base + !victim) line_addr ~write
      end;
      if t.prefetch_next_line then install_line t (line_addr + 1);
      Stats.record ~write t.stats ~hit:false;
      false
    end
  end

let resident_lines t =
  Array.to_list t.tags
  |> List.filter (fun tag -> tag >= 0)
  |> List.map (fun tag -> tag lsl t.line_bits)
