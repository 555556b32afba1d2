(** Fortran 77 code generation — the paper's source language.

    The layout is realized the way the SUIF passes realized it: all
    variables live in one COMMON block, with PAD arrays inserted between
    them for the inter-variable pads and padded leading dimensions for
    the intra-variable (column) pads, so a Fortran compiler reproduces
    the optimized addresses exactly.  As with {!Codegen_c}, statement
    bodies reproduce the reference stream (reads summed into an
    accumulator, writes storing it); 1-based Fortran subscripts are
    emitted by shifting the IR's 0-based affine expressions.

    Gather subscripts are emitted with their index tables in DATA
    statements when small; tables above [max_table] entries raise
    (F77 DATA statements do not scale to megabyte tables). *)

open Mlc_ir

exception Unsupported of string

(** [emit ?max_table layout program] — a complete F77 translation unit.
    @raise Unsupported on gather tables above [max_table] (default
    4096). *)
val emit : ?max_table:int -> Layout.t -> Program.t -> string
