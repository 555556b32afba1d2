(** L2MAXPAD — maximal variable separation (Section 3.2.2) on the L2
    cache.

    MAXPAD spreads the variables evenly across one cache so that columns
    of different variables cannot overlap (when column sizes are a small
    fraction of the cache, this preserves {e all} group reuse at that
    level).

    L2MAXPAD is its multi-level refinement: applied after GROUPPAD, it
    spreads variables across the L2 cache using pads that are multiples
    of the L1 cache size [S1].  A pad ≡ 0 (mod S1) leaves every address's
    residue mod S1 — and hence the whole GROUPPAD L1 layout — untouched,
    while repositioning variables on the L2 cache. *)

open Mlc_ir

(** [apply_l2 ~s1 ~l2_size layout] — L2MAXPAD: spread on the L2 cache
    with pads that are multiples of [s1]. *)
val apply_l2 : s1:int -> l2_size:int -> Layout.t -> Layout.t
