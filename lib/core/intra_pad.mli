(** Intra-variable (column) padding: lengthen each column of an array so
    that references to {e the same} variable stop colliding on the cache
    (Rivera & Tseng PLDI '98).  The paper applies this to ADI32 and
    ERLE64 before the inter-variable passes. *)

open Mlc_ir

(** [apply ~size ~line program layout] pads columns of arrays whose own
    references conflict, one element at a time, up to [line / 4 + 1]
    elements (a line's worth of 4-byte elements).

    Each step tests the padded array alone ({!Mlc_analysis.Arcs.self_conflict}):
    only the nests that name it, only its own references, up to the first
    pair at least [line] bytes apart in memory and under [line] bytes apart
    on the cache.  A step costs O(k²) in that array's k references per
    nest, not a whole-nest [severe_conflicts] over every pair. *)
val apply : size:int -> line:int -> Program.t -> Layout.t -> Layout.t

(** Same-array severe conflicts remaining, per nest index. *)
val remaining_self_conflicts :
  size:int -> line:int -> Program.t -> Layout.t -> (int * Mlc_analysis.Arcs.conflict) list
