(** SPEC95fp mini-kernels (Table 1, bottom block) — structural substitutes
    for the full benchmarks, as documented in DESIGN.md.  SWIM shares the
    shallow-water structure of SHAL at its SPEC problem size. *)

open Mlc_ir

(** SWIM — vector shallow water model: SHAL's thirteen arrays at SPEC
    size (512). *)
val swim : int -> Program.t

(** TOMCATV — mesh generation: seven NxN arrays, stencil sweeps plus a
    tridiagonal-ish recurrence. *)
val tomcatv : int -> Program.t

(** APSI — pseudospectral air pollution: 3D fields swept by vertical
    columns. *)
val apsi : int -> Program.t

(** HYDRO2D — Navier-Stokes hydrodynamics: many 2D fields, Jacobi-like
    stencils. *)
val hydro2d : int -> Program.t

(** SU2COR — quantum physics Monte Carlo: strided complex-pair lattice
    sweeps. *)
val su2cor : int -> Program.t

(** TURB3D — isotropic turbulence: 3D FFT-flavoured passes. *)
val turb3d : int -> Program.t

(** WAVE5 — plasma physics: 100_000 particle pushes (gathers) over field
    arrays. *)
val wave5 : int -> Program.t

(** FPPPP — electron integrals: small dense blocks with little array
    reuse. *)
val fpppp : int -> Program.t
