(** GROUPPAD — padding to preserve group-temporal reuse on the L1 cache
    (Rivera & Tseng ICS '98; Section 3.2.1).

    Variables are visited in declaration order.  For each one, a limited
    set of candidate positions (multiples of the cache line across the
    cache) is tried, and the position maximizing the number of references
    that successfully exploit group reuse (preserved arcs) across all
    nests is kept, preferring positions that introduce no severe
    conflicts and, among ties, the smallest pad. *)

open Mlc_ir

(** [apply ~size ~line program layout] — [size]/[line] of the cache being
    targeted (L1 for the classic pass).  The candidate pads are the
    multiples of a step below [size]: [size/128] rounded down to a
    multiple of [line], at least one line, and rounded up to a multiple
    of every element size (a no-op with 4- and 8-byte elements and lines
    of 8 bytes or more), so about 128 candidates.

    Each candidate then moves every array from the variable on by exactly
    the pad, and all of the variable's candidates are scored in one
    sweep: the dots on one side of it score once, each pair or arc
    straddling it adds one window of shifts, and one prefix sum over the
    candidates gives every score.  Its cost per variable is about that of
    scoring one candidate, plus one term per candidate. *)
val apply : size:int -> line:int -> Program.t -> Layout.t -> Layout.t

(** Number of references exploiting group reuse over all nests on a cache
    of [size] bytes — the objective GROUPPAD maximizes. *)
val preserved_references : size:int -> Program.t -> Layout.t -> int

(** Severe-conflict count over all nests at (size, line). *)
val conflict_count : size:int -> line:int -> Program.t -> Layout.t -> int
