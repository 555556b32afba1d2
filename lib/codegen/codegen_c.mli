(** C code generation: emit a standalone C program that performs the
    {e same memory-reference stream} as the IR program under a given
    layout — the artifact a user compiles on a real machine to observe
    the paper's effects outside the simulator.

    The whole data area is one flat allocation sized by the layout's
    [total_bytes], so every pad (inter- and intra-variable) the padding
    algorithms inserted is realized physically, exactly as the SUIF
    passes realized them inside one global structure.  References become
    reads summed into a running checksum and writes of that checksum, so
    no access can be dead-code-eliminated; the emitted [main] runs the
    program [repeat] times around a timer and prints the checksum and
    elapsed seconds.

    The IR keeps references rather than arithmetic, so the generated
    code reproduces the access pattern, not the original numerics (see
    Pretty's note); gather references are emitted with their tables as
    static const arrays. *)

open Mlc_ir

(** [emit ?repeat layout program] — the complete C translation unit. *)
val emit : ?repeat:int -> Layout.t -> Program.t -> string
