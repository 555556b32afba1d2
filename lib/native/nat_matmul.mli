(** Native (really executed) matrix multiplication, untiled and tiled with
    the Figure 8 loop structure — the workload behind the paper's timing
    experiment (Figure 13).  Matrices are column-major in flat float
    arrays, matching the IR's addressing, so simulated and real runs
    exercise the same access pattern. *)

type matrix = { n : int; data : float array }

val create : int -> matrix

(** Deterministically filled. *)
val random_fill : seed:int -> matrix -> unit

(** [multiply ~c ~a ~b] — C += A·B with J/K/I loops (I innermost,
    unit stride). *)
val multiply : c:matrix -> a:matrix -> b:matrix -> unit

(** [multiply_tiled ~h ~w ~c ~a ~b] — the Figure 8 tiled order:
    KK (step [w]), II (step [h]), J, K, I. *)
val multiply_tiled : h:int -> w:int -> c:matrix -> a:matrix -> b:matrix -> unit

(** Hand-unrolled (K by 4) with scalar replacement of the B operands and
    the C column pointer — the paper's footnote 2 variant ("if we unroll
    the loop by hand and apply scalar replacement, we achieve 60
    MFLOPS"): same traffic, better register use. *)
val multiply_unrolled : c:matrix -> a:matrix -> b:matrix -> unit

(** Max-abs difference between two result matrices (for correctness
    tests: tiled ≡ untiled). *)
val max_abs_diff : matrix -> matrix -> float

(** MFLOP count of one N³ multiplication: 2·N³ / 10⁶. *)
val mflop_count : int -> float
