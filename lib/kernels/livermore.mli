(** The scientific kernels of Table 1 (top block).

    Each builder takes a problem size and returns the IR program.  The
    reference patterns are transcribed from the Livermore loops / kernel
    sources; 1-based Fortran index ranges become 0-based ranges with the
    same shape.  Default sizes follow the kernel names (DOT256, EXPL512,
    JACOBI512, SHAL512, ERLE64, ...). *)

open Mlc_ir

(** DOT — Livermore 3, inner product [Q += Z(k) * X(k)].  The accumulator
    lives in a register, so the body carries the two vector reads. *)
val dot : int -> Program.t

(** ADI — Livermore 8, 2D ADI integration fragment: two sweeps (rows then
    columns) over arrays U1..U3 and right-hand sides. *)
val adi : int -> Program.t

(** ERLE — Erlebacher 3D tridiagonal solver fragment: forward and
    backward sweeps along the third dimension of 3D arrays, where whole
    planes are a multiple of the L1 cache size (this is the kernel that
    needs intra-variable padding). *)
val erle : int -> Program.t

(** EXPL — Livermore 18, 2D explicit hydrodynamics: nine NxN arrays,
    three j/k nests (75/76/77). *)
val expl : int -> Program.t

(** IRR — relaxation over an irregular mesh: gather references through
    deterministic random edge tables over [max 16 (edges / 5)] nodes
    (the registry's IRR500K has 500_000 edges). *)
val irr : int -> Program.t

(** JACOBI — 2D Jacobi with copy-back (convergence test folded into the
    second nest's reads). *)
val jacobi : int -> Program.t

(** LINPACKD — right-looking Gaussian elimination with partial pivoting:
    triangular update [A(i,j) -= A(i,k) * A(k,j)]. *)
val linpackd : int -> Program.t

(** SHAL — shallow-water model (the SWIM ancestor): thirteen NxN arrays,
    three computation nests (CALC1, CALC2, CALC3) per time step. *)
val shal : int -> Program.t
