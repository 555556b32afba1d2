(** Native 2D stencil kernels (Jacobi and the EXPL update) on column-major
    flat arrays, used by the Bechamel benches to show real-hardware
    effects of padding and fusion, and by tests to cross-check the
    simulator's reference counting. *)

type grid = { n : int; ld : int; data : float array }
(** [ld] is the leading (column) dimension; [ld > n] realizes
    intra-variable padding on real hardware. *)

val create : ?ld:int -> int -> grid

val random_fill : seed:int -> grid -> unit

(** Jacobi with copy-back, [steps] times. *)
val jacobi : steps:int -> a:grid -> b:grid -> unit

(** The two separate EXPL-style update nests... [expl_separate] runs the
    ZU/ZV-style update then the ZR/ZZ-style update as two sweeps;
    [expl_fused] runs them fused with an alignment shift of one column —
    the transformation Figure 12 studies. *)
val expl_separate : za:grid -> zb:grid -> zu:grid -> zv:grid -> zr:grid -> zz:grid -> unit

val expl_fused : za:grid -> zb:grid -> zu:grid -> zv:grid -> zr:grid -> zz:grid -> unit
