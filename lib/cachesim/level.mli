(** A single level of cache: set-associative with LRU replacement.

    Geometry is given in bytes.  [assoc = 1] is a direct-mapped cache, the
    configuration the paper's optimizations assume.  Sizes and line sizes
    must be powers of two, and [assoc] must divide [size / line]. *)

type geometry = {
  size : int;   (** capacity in bytes *)
  line : int;   (** line size in bytes *)
  assoc : int;  (** ways; 1 = direct-mapped *)
}

type t

(** [create ?write_allocate ?prefetch_next_line geom] — [write_allocate]
    (default true) installs lines on write misses; with it off, write
    misses bypass the level (no-allocate / write-around).  Lines written
    while resident are marked dirty; evicting a dirty line counts a
    write-back.  [prefetch_next_line] (default false) models a simple
    sequential hardware prefetcher: every demand miss also installs the
    next line (untimed, no stats impact beyond the hits it creates).
    @raise Invalid_argument on non-power-of-two size/line, [line > size],
    or an associativity that does not divide the number of lines. *)
val create : ?write_allocate:bool -> ?prefetch_next_line:bool -> geometry -> t

val stats : t -> Stats.t

(** [access t ?write addr] touches the line containing byte [addr],
    updates LRU state and counters, and reports whether it hit.  A miss
    installs the line unless it is a write under no-allocate. *)
val access : t -> ?write:bool -> int -> bool

(** Lines currently resident, as line-granule addresses (byte address of
    each line start), in no particular order.  Intended for tests. *)
val resident_lines : t -> int list
