(** Tiling (Section 5, Figure 8).

    [matmul] and [tiled_matmul] build the paper's evaluation kernel.  The
    tiled nest is written out as the paper prints it — strip loops [KK]
    and [II] outermost, element loops clamped at [N] — since Section 5
    tunes tile sizes on this one nest:

    {v
    do KK = 1,N,W
     do II = 1,N,H
      do J = 1,N
       do K = KK, min(KK+W-1,N)
        do I = II, min(II+H-1,N)
         C(I,J) = C(I,J) + A(I,K)*B(K,J)
    v}

    Tiling is legal because matmul's nest is fully permutable; the tests
    check that every loop order of {!matmul} is legal. *)

open Mlc_ir

(** Untiled IJK matrix multiplication C = A·B on NxN doubles, J outermost
    (column-major-friendly: I innermost). *)
val matmul : int -> Program.t

(** The Figure 8 nest: {!matmul} with [K] and [I] tiled by [w] and [h].
    @raise Invalid_argument when [h < 1] or [w < 1]. *)
val tiled_matmul : n:int -> h:int -> w:int -> Program.t
