(** Code generation: emit a program as a standalone C or Fortran 77
    program that performs the {e same memory-reference stream} as the IR
    program under a given layout — the artifact a user compiles on a real
    machine to observe the paper's effects outside the simulator.

    Both languages are dialects over {!Mlc_ir.Pretty.walk}, the one nest
    walk.  They share the affine-sum printer, the gather-table registry
    and the statement emission: reads are summed into a running checksum
    and writes store that checksum, so no access can be
    dead-code-eliminated.  The IR keeps references rather than
    arithmetic, so the generated code reproduces the access pattern, not
    the original numerics (see {!Mlc_ir.Pretty}).  Each dialect keeps its
    own loop header, access spelling, declarations and [main]/[PROGRAM]
    wrapper. *)

open Mlc_ir

(** [emit_c ?repeat layout program] — a complete C translation unit.
    The whole data area is one flat allocation sized by the layout's
    [total_bytes], so every pad (inter- and intra-variable) is realized
    physically, as the SUIF passes realized them inside one global
    structure.  Gather tables become static const arrays.  [main] runs
    the program [repeat] times (default 1) around a timer and prints the
    checksum and the elapsed seconds.
    @raise Invalid_argument on elements other than 4 or 8 bytes. *)
val emit_c : ?repeat:int -> Layout.t -> Program.t -> string

(** [emit_f77 layout program] — a complete fixed-form F77 program, the
    paper's source language.  All variables live in one COMMON block,
    with PAD arrays between them for the inter-variable pads and padded
    leading dimensions for the intra-variable (column) pads, so a Fortran
    compiler reproduces the optimized addresses exactly.  Subscripts are
    shifted to 1-based; gather tables are initialized by DATA statements.
    @raise Invalid_argument on a gather table above 4096 entries (DATA
    statements do not scale to megabyte tables), a pad that is not a
    multiple of 8 bytes, or elements other than 4 or 8 bytes. *)
val emit_f77 : Layout.t -> Program.t -> string
