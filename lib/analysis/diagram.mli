(** ASCII rendering of the paper's layout diagrams (Figures 3, 4, 5, 7).

    The cache is drawn as a box of fixed character width; each reference
    becomes a dot at its scaled position, labelled below; group-reuse
    arcs are drawn above the box, solid when preserved and dotted when
    lost.  Example output for one nest:

    {v
        .----2222222222----.    ..111111111111..
    |--A0--A1----B0----B1----C0----C1--------------|  cache 16384B
     arcs: 1 A0->A1 7680B PRESERVED
           2 B0->B1 7680B lost (dot under arc: C0)
    v} *)

open Mlc_ir

(** [render_program layout ~size ~line p] — a multi-line string, one
    diagram per nest, each box 72 characters wide. *)
val render_program : Layout.t -> size:int -> line:int -> Program.t -> string
