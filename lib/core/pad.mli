(** PAD — inter-variable padding to eliminate severe conflict misses on a
    single cache configuration (Rivera & Tseng, PLDI '98; Section 3.1.1).

    Variables are visited in declaration order.  For each one, while any
    of its references maps within one cache line (circularly) of a
    reference to a {e different, already-placed} variable in some nest,
    its base address is bumped by one cache line.  In practice only a few
    lines of padding per variable are needed. *)

open Mlc_ir

(** [apply ~size ~line program layout] returns the padded layout.
    [size] and [line] describe the cache targeted, treated as
    direct-mapped.

    With [assoc] above 1 (default 1) it is the associativity-aware
    variant the paper argues is unnecessary: on a k-way cache a set only
    thrashes once {e more than k} references pile onto it, so a variable
    is bumped only while one of its references has [assoc] or more
    references of placed variables within one line of it.  The ablation
    benches compare it against treating the cache as direct-mapped. *)
val apply :
  ?assoc:int -> size:int -> line:int -> Program.t -> Layout.t -> Layout.t

(** Severe conflicts remaining across all nests (should be empty after
    [apply] unless the working set is inherently too dense). *)
val remaining_conflicts :
  size:int -> line:int -> Program.t -> Layout.t -> (int * Mlc_analysis.Arcs.conflict) list
