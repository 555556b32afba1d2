(** End-to-end optimization recipes — the "versions" the paper compares.

    Each strategy takes a program and returns the layout its passes
    produce (the program text itself is unchanged by the data
    transformations; fusion/tiling variants return transformed programs
    separately via {!Fusion} / {!Tiling}). *)

open Mlc_ir
module Cs = Mlc_cachesim

type strategy =
  | Original        (** packed layout, no padding *)
  | Pad_l1          (** intra-pad (when needed) + PAD on the L1 cache *)
  | Pad_multilevel  (** intra-pad + MULTILVLPAD (S1, Lmax) *)
  | Grouppad_l1     (** intra-pad + GROUPPAD on the L1 cache *)
  | Grouppad_l1_l2  (** intra-pad + GROUPPAD + L2MAXPAD *)

val strategy_name : strategy -> string

(** The {!Pass.t} composition a strategy denotes; [layout_for] is
    [Pass.run_all] over this list.  [Original] is the empty list. *)
val passes : strategy -> Pass.t list

(** [layout_for machine strategy program] runs the passes. *)
val layout_for : Cs.Machine.t -> strategy -> Program.t -> Layout.t
