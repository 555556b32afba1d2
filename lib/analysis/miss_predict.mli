(** Analytical cache-miss prediction — the "cache estimation technique"
    family the paper builds on (Ferrante/Sarkar, Gannon/Jalby; refined by
    cache-miss-equation work).  Three regimes per nest and cache level:

    - the nest's footprint fits the cache: only cold misses (footprint
      lines);
    - otherwise, each uniformly generated group fetches its leader's
      line traffic (the Carr–McKinley loop cost), {e plus} the traffic of
      every trailing reference whose group-reuse arc the layout fails to
      preserve at this cache size (the {!Arcs} test);
    - severe conflicts add ping-pong misses: each conflicting pair of
      references misses on every iteration until the pads remove it.

    The estimate is deliberately coarse — it exists to {e rank} layouts
    and transformations the way the paper's compiler does, and is
    validated against the simulator for ordering, not equality. *)

open Mlc_ir

(** All legal loop orders (outermost first) of a nest, ranked by the
    Carr–McKinley–Tseng loop cost, cheapest first.  The cost is the
    cache lines each uniformly generated group leader streams with the
    order's innermost loop: 1 line if the reference is invariant to it,
    [trip · stride / line] lines if it strides by less than a line,
    [trip] lines otherwise — times the trips of all other loops.  This
    is what makes permutation benefit every cache level at once
    (Section 2's argument).  Triangular bounds use their maximum
    extents. *)
val rank_permutations :
  Layout.t -> line:int -> Nest.t -> (string list * float) list

(** Estimated misses of one nest execution on a direct-mapped cache. *)
val nest_misses : Layout.t -> size:int -> line:int -> Nest.t -> float

(** Per-level estimates for a whole program on a machine (levels as in
    the machine's geometry; each level estimated independently). *)
val program_misses :
  Layout.t -> Mlc_cachesim.Machine.t -> Program.t -> float list
