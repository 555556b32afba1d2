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
    multiples of [candidate_step] below [size]; it defaults to [size/128]
    rounded down to a multiple of [line], and at least one line, so about
    128 candidates.  Larger steps explore fewer positions.

    When every element size from a variable on divides the step (always
    at the default step with 4- and 8-byte elements), each candidate moves
    every array from that variable on by exactly the pad, and all of the
    variable's candidates are scored in one sweep: the dots on one side of
    it score once, each pair or arc straddling it adds one window of
    shifts, and one prefix sum over the candidates gives every score.  Its
    cost per variable is about that of scoring one candidate, plus one
    term per candidate.  Any other variable is scored candidate by
    candidate.  Both give the same layout and decision instants. *)
val apply :
  ?candidate_step:int -> size:int -> line:int -> Program.t -> Layout.t -> Layout.t

(** Number of references exploiting group reuse over all nests on a cache
    of [size] bytes — the objective GROUPPAD maximizes. *)
val preserved_references : size:int -> Program.t -> Layout.t -> int

(** Severe-conflict count over all nests at (size, line). *)
val conflict_count : size:int -> line:int -> Program.t -> Layout.t -> int
