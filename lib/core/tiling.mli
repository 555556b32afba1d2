(** Tiling (Section 5, Figure 8).

    The tiling strip-mines the chosen loops and moves the strip loops
    outermost (preserving their relative order), after checking that the
    band is fully permutable.  [matmul] and [tiled_matmul] build the
    paper's evaluation kernel:

    {v
    do KK = 1,N,W
     do II = 1,N,H
      do J = 1,N
       do K = KK, min(KK+W-1,N)
        do I = II, min(II+H-1,N)
         C(I,J) = C(I,J) + A(I,K)*B(K,J)
    v} *)

open Mlc_ir

exception Illegal of string

(** Untiled IJK matrix multiplication C = A·B on NxN doubles, J outermost
    (column-major-friendly: I innermost). *)
val matmul : int -> Program.t

(** The Figure 8 nest: {!matmul} with [K] and [I] tiled by [w] and [h]. *)
val tiled_matmul : n:int -> h:int -> w:int -> Program.t
