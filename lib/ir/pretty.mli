(** The printer of the IR: the kernel-language text that
    {!Mlc_frontend.Parser} reads back, the one spelling of an affine
    reference, and the one nest walk the code generators print with.

    The IR keeps references and flop counts but not the arithmetic
    between them, so statement right-hand sides are printed as a sum of
    the read references (every read appears exactly once) — parsing the
    output yields a program with the {e same reference stream} as the
    original, which is the round-trip property the tests check.
    Statements with no write (the paper's elided left-hand sides of
    Figure 2) are printed as assignments to their last read. *)

(** [program p] in the kernel language.
    @raise Invalid_argument on what the language cannot spell: gather
    subscripts (IRR500K, BUK, CGM, EMBAR, WAVE5), clamped loops (tiled
    and skewed nests), statements with more than one write, and elements
    other than 4 or 8 bytes. *)
val program : Program.t -> string

(** [ref_to_string r] is [r] in the kernel language, e.g. [A(2*i,j-1)]
    (the access kind is not shown).
    @raise Invalid_argument on a gather subscript. *)
val ref_to_string : Ref_.t -> string

(** [walk ~open_loop ~stmt ~close_loop n] visits a nest in print order:
    [open_loop d l] for each loop at its depth [d] (0 outermost), then
    [stmt depth s] for each statement at the nest's depth, then
    [close_loop d] innermost first. *)
val walk :
  open_loop:(int -> Loop.t -> unit) ->
  stmt:(int -> Stmt.t -> unit) ->
  close_loop:(int -> unit) ->
  Nest.t ->
  unit
