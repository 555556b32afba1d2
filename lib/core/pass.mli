(** The unified optimization-pass API.

    Every transformation of the pipeline — loop permutation, fusion,
    scalar replacement, and the five padding passes — is exposed as a
    {!t}: a named function from a [(program, layout)] pair to a new pair
    plus a list of {!event}s describing the decisions taken.  Program
    passes leave the layout untouched; layout passes leave the program
    untouched; both shapes compose freely.

    {!Pipeline.layout_for} and {!Compiler.optimize} are compositions of
    [t] lists run through {!run_all}, so observability instrumentation
    (a span per pass, an instant event per decision, a decision counter)
    lives in exactly one place instead of being replicated at every call
    site. *)

open Mlc_ir
module Cs = Mlc_cachesim

(** A decision taken by a pass, e.g. ["permuted (i,j) -> (j,i)"].
    [detail] is the human-readable log line; [pass] the emitting pass. *)
type event = { pass : string; detail : string }

type t = {
  name : string;
  applies : Cs.Machine.t -> Program.t -> bool;
      (** cheap gate; a pass that does not apply is skipped entirely *)
  run :
    Cs.Machine.t ->
    Program.t * Layout.t ->
    Program.t * Layout.t * event list;
}

(** {2 The pass library} *)

(** Loop permutation toward memory order (loop-cost ranked,
    dependence-checked), per nest. *)
val permute : t

(** Profitable loop fusion of adjacent nests (Section 4 two-level model). *)
val fusion : t

(** Scalar replacement of register-carried loads (changes the reference
    stream). *)
val scalar_replace : t

(** Intra-variable (column) padding against self-conflicts on L1. *)
val intra_pad : t

(** PAD against the L1 cache (Section 3.1.1). *)
val pad_l1 : t

(** MULTILVLPAD on the synthetic (S1, Lmax) configuration (Section 3.1.2). *)
val multilvlpad : t

(** GROUPPAD on the L1 cache (Section 3.2.1). *)
val grouppad_l1 : t

(** L2MAXPAD: spread on the L2 cache with pads that are multiples of S1;
    applies only when the machine has a second level. *)
val l2maxpad : t

(** {2 Execution} *)

(** [run_one machine pass (p, l)] — applies the gate, then the pass. *)
val run_one :
  Cs.Machine.t -> t -> Program.t * Layout.t -> Program.t * Layout.t * event list

(** [run_all machine passes (p, l)] folds the passes left to right,
    concatenating events.  Each pass runs in an [Obs] span
    (["pass:<name>"], category ["pass"]) that emits one instant event per
    decision and bumps the ["pass.<name>.decisions"] counter; a no-op
    when observability is disabled. *)
val run_all :
  Cs.Machine.t ->
  t list ->
  Program.t * Layout.t ->
  Program.t * Layout.t * event list
