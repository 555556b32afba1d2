(** NAS benchmark mini-kernels (Table 1, middle block).

    Substitutes for the full NAS codes (see DESIGN.md): each mini
    reproduces the dominant loop/array structure of its namesake — the
    number and shape of the arrays, the stencil or indirect access
    pattern, and the sweep directions — which is what the padding passes
    and the cache simulation actually see.  Default sizes keep each run
    in the milliseconds-to-seconds range. *)

open Mlc_ir

(** BT: block-tridiagonal solver — 3D sweeps over several (N,N,N) fields
    in all three directions. *)
val bt : int -> Program.t

(** LU (APPLU): SSOR sweeps with wavefront-like k recurrence. *)
val lu : int -> Program.t

(** SP (APPSP): scalar-pentadiagonal sweeps, five diagonals per
    direction. *)
val sp : int -> Program.t

(** BUK: integer bucket sort of [n] keys into 1024 buckets — counting
    pass (gather-increment), prefix sum, and the permutation pass. *)
val buk : int -> Program.t

(** CGM: sparse conjugate-gradient matrix-vector product through column
    indices, eight nonzeros per row. *)
val cgm : int -> Program.t

(** EMBAR: embarrassingly parallel Monte Carlo — almost no memory reuse;
    a small table plus counters. *)
val embar : int -> Program.t

(** FFTPDE: 3D FFT kernel — butterfly passes with power-of-two strides. *)
val fftpde : int -> Program.t

(** MGRID: multigrid V-cycle fragment — fine-grid smoothing plus
    restriction/prolongation between grids. *)
val mgrid : int -> Program.t
