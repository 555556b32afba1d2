(** Scalar replacement (Carr & Kennedy): loads that a compiler would keep
    in registers are removed from the reference stream.

    Two register sources, both visible in the paper:
    - a read from a location already referenced earlier in the same
      iteration (the fusion model's [Register] class — "wherever there
      are two identical references, only the first may cause a cache
      fault");
    - a read whose group partner touched the same location at most two
      iterations of the {e innermost} loop earlier
      (register rotation across stencil points, footnote 2's source of
      the 38→60 MFLOPS jump together with unrolling).

    Writes are never removed.  Boundary iterations (where the rotating
    registers are not yet warm) are ignored — the stream is an
    approximation from the steady state, like the paper's models. *)

open Mlc_ir

(** [apply nest] — one nest rewritten. *)
val apply : Nest.t -> Nest.t

(** {!apply} to every nest of a program. *)
val apply_program : Program.t -> Program.t
