(** The worked examples from the paper's text, used by unit tests and the
    fusion experiment (Figure 12).

    {!figure1} is the loop-permutation example of Section 1/2; with
    {!figure1_permuted} and {!figure1_transposed} it pins Section 2's
    claim that either fix helps every cache level at once.
    {!figure2} is the two-nest program of Section 3/4; {!figure6_fused}
    its fused form (Figure 6).  The statements' left-hand sides are
    elided in the paper, so the bodies here contain exactly the array
    references shown in the figures (reads), which is what the layout
    diagrams and the Section 4 accounting are computed from. *)

open Mlc_ir

(** [figure1 ~n ~m] — [do j do i: B(j) = A(j,i)] (original order). *)
val figure1 : n:int -> m:int -> Program.t

(** [figure1_permuted] — the loop-permuted version ([i] outer). *)
val figure1_permuted : n:int -> m:int -> Program.t

(** [figure1_transposed] — original loop order with A transposed. *)
val figure1_transposed : n:int -> m:int -> Program.t

(** [figure2 n] — two nests over A, B, C (NxN doubles):
    nest 1 reads A(i,j), A(i,j+1), B(i,j), B(i,j+1), C(i,j), C(i,j+1);
    nest 2 reads B(i,j-1), B(i,j), B(i,j+1), C(i,j). *)
val figure2 : int -> Program.t

(** [figure6_fused n] — the same references in a single fused nest. *)
val figure6_fused : int -> Program.t
