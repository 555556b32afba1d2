(** Tile-size selection (Section 5).

    A tile of array columns is self-interference-free on a direct-mapped
    cache when the cache positions of its columns (spaced by the column
    size mod the cache size) keep a circular gap of at least the tile
    height.  The Euclidean recurrence on (cache size, column size) yields
    the natural candidate heights (Coleman–McKinley / Rivera–Tseng
    "euc/eucPad"); we score candidates by the miss fraction
    [1/(2H) + 1/(2W)] of tiled matrix multiplication.

    The paper's multi-level observation, which {!no_l2_interference}
    checks, is that a tile with no L1 self-interference has none on any
    larger level either (modular arithmetic: positions mod [k·S1] differ
    at least as much as positions mod [S1]).

    {!select}, {!lrw} and {!tss} each run inside an [Obs] span named
    [tile_size:select]. *)

type tile = { height : int; width : int }

(** Remainder chain of the Euclidean algorithm on
    ([cache_elems], [col_elems mod cache_elems]); these are the candidate
    non-conflicting tile heights. *)
val euclid_chain : cache_elems:int -> col_elems:int -> int list

(** Largest width such that [w] columns of height [h] (spacing
    [col_elems]) have no self-interference on the cache, capped at
    [max_width].

    Column [k] starts at [k·col mod C] ([C] = [cache_elems]), and the
    circular gap between columns [i] and [j] is [‖(j−i)·col‖_C], where
    [‖x‖_C = min (x mod C) (C − x mod C)].  It depends only on [j − i], so
    the minimum gap of [w] columns is [min over 1 ≤ d < w of ‖d·col‖_C],
    and the answer is the first [d] with [‖d·col‖_C < h], or [max_width]
    if none comes first.  A repeated position ([d·col ≡ 0 mod C])
    conflicts at every height, and [h > C] gives 0.  One incremental scan
    over [d]: time proportional to the answer, no allocation. *)
val max_conflict_free_width :
  cache_elems:int -> col_elems:int -> height:int -> max_width:int -> int

(** [select ~cache_bytes ~elem ~col_elems ~rows] — choose a
    self-interference-free tile for an array with [rows] usable rows,
    maximizing tiled-matmul reuse.  [capacity_bytes] (default
    [cache_bytes]) caps the tile footprint: pass [2 * l1] for the paper's
    "2xL1" policy while still checking conflicts against [cache_bytes]. *)
val select :
  ?capacity_bytes:int ->
  cache_bytes:int ->
  elem:int ->
  col_elems:int ->
  rows:int ->
  unit ->
  tile

(** Figure 13's tile policies for an [n]x[n] matrix of [elem]-byte
    elements on an [l1]-byte L1 and an [l2]-byte L2: each label with the
    tile {!select} picks for it.  "L1" is conflict-free on and sized to
    L1; "2xL1", "4xL1" and "L2" are conflict-free on L2 with a footprint
    of [2·l1], [4·l1] and [l2]. *)
val policy_tiles : l1:int -> l2:int -> elem:int -> int -> (string * tile) list

(** True when tile positions conflict-free mod [s1] are also
    conflict-free mod [k * s1] — exercised by tests as the paper's
    modular-arithmetic claim. *)
val no_l2_interference :
  s1_elems:int -> k:int -> col_elems:int -> tile -> bool

(** Lam–Rothberg–Wolf: the largest non-conflicting {e square} tile, found
    by walking the Euclidean chain until a remainder fits as both height
    and width (their √(cache)-style rule, conflict-checked). *)
val lrw : cache_bytes:int -> elem:int -> col_elems:int -> rows:int -> tile

(** Coleman–McKinley TSS: maximize tile {e area} (working set) over the
    Euclidean-chain heights subject to no self-interference, instead of
    the miss-fraction score {!select} uses. *)
val tss : cache_bytes:int -> elem:int -> col_elems:int -> rows:int -> tile

(** Footprint in bytes of the tile of one array. *)
val footprint_bytes : elem:int -> tile -> int

val pp : Format.formatter -> tile -> unit
