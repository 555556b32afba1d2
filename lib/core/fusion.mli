(** Loop fusion (Section 4), with alignment shifts.

    Two adjacent nests of the same depth are fused iteration-wise.  When a
    dependence forbids direct fusion, the second body can be shifted: at
    fused outer iteration [k] it executes its original iteration [k −
    shift] (the shift-and-peel idea of Manjikian & Abdelrahman, which the
    paper cites).  Peeled prologue/epilogue nests cover the boundary
    iterations so the fused program performs exactly the original
    iterations. *)

open Mlc_ir

exception Illegal of string

(** [fuse ?shift n1 n2] — nests of equal depth whose loops correspond
    positionally (second nest's variables are renamed to the first's).
    Returns the peel-prologue (original first body on leading
    iterations), the fused core, and the peel-epilogue (second body on
    trailing iterations); empty peels are omitted.
    @raise Illegal on depth mismatch, non-constant outer bounds, or an
    illegal shift. *)
val fuse : ?shift:int -> Nest.t -> Nest.t -> Nest.t list

(** Fuse nests [i] and [i+1] of a program, picking the smallest legal
    shift automatically (up to [max_shift], default 4).
    @raise Illegal when no legal shift exists. *)
val fuse_program : ?max_shift:int -> Program.t -> int -> Program.t

(** The fused core among [fuse]'s nests (a non-empty list): the first
    with the most references, since the peels run the same bodies over a
    few iterations. *)
val core_of : Nest.t list -> Nest.t

(** Automatic fusion: repeatedly fuse adjacent nest pairs that are legal
    (smallest shift wins) and profitable under the Section 4 two-level
    model — the paper's "comparing the sum of reuse at each cache level,
    scaled by the cost of cache misses at that level".  GROUPPAD is
    applied to candidate layouts for the accounting; peeled iterations
    are excluded from the static counts like the paper's per-body model.
    Shifts up to 4 are tried.  Returns the program and a log line per
    decision. *)
val optimize_program :
  Mlc_cachesim.Machine.t -> Mlc_ir.Program.t -> Mlc_ir.Program.t * string list
