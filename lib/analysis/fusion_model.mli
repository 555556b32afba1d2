(** The two-level reference accounting of Section 4.

    For each loop nest, every reference in the body is classified by where
    its data comes from, assuming (as the paper does for this model) that
    arrays exceed the L2 capacity, no reuse survives between nests, and
    L2MAXPAD has preserved on the L2 cache all group reuse that the L1
    layout loses:

    - [Register]: a textually identical reference already issued in the
      same body (fusion creates these) — register or trivial L1 hit;
    - [L1_hit]: trailing reference whose group-reuse arc is preserved on
      the L1 cache;
    - [L2_ref]: arc lost on L1 but (by assumption / L2MAXPAD) preserved on
      L2 — paper's "L2 references";
    - [Memory]: leading references and references with no exploitable
      group reuse — paper's "memory references".

    On the Figure 2 example this reproduces the paper's numbers:
    original nests cost 5 memory + 2 L2 references, the fused nest 3 + 3. *)

open Mlc_ir

type counts = {
  register : int;
  l1_hits : int;
  l2_refs : int;
  memory_refs : int;
}

(** Aggregate over a list of nests (a program version). *)
val count : Layout.t -> l1_size:int -> Nest.t list -> counts

(** [miss_cost model counts] — weigh the counts by per-level miss costs to
    decide fusion profitability (paper: "comparing the sum of reuse at
    each cache level, scaled by the cost of cache misses at that level").
    [l2_cost] is the penalty of an L1 miss that hits L2; [memory_cost] of
    a miss to memory. *)
val miss_cost : l2_cost:float -> memory_cost:float -> counts -> float

val pp_counts : Format.formatter -> counts -> unit
