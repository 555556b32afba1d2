(** The full optimization pipeline, combining every pass in the order the
    paper's infrastructure applies them:

    + loop permutation per nest toward memory order (loop-cost ranked,
      dependence-checked);
    + profitable loop fusion of adjacent nests (two-level model);
    + intra-variable padding where a variable conflicts with itself;
    + inter-variable padding / group-reuse padding for the L1 cache,
      then L2MAXPAD when a second level exists;
    + optionally scalar replacement of register-carried loads.

    The pipeline is a composition of {!Pass.t} values: pass
    [~passes:[...]] to run an arbitrary sequence.  Tiling is not applied
    blindly — it is profitable for reduction-style nests like matrix
    multiplication, not for the stencils that dominate the suite — so it
    stays an explicit tool ({!Tiling}).

    Every decision is logged; [optimize] never changes what the program
    computes (each pass is legality-checked). *)

open Mlc_ir

type result = {
  program : Program.t;
  layout : Layout.t;
  log : string list;
}

(** The paper's default pipeline: permute, fusion, then
    [Pipeline.passes Grouppad_l1_l2] (intra-pad, GROUPPAD, L2MAXPAD). *)
val default_passes : Pass.t list

(** [optimize ?passes machine program] folds [passes] (default
    {!default_passes}) over [(program, Layout.initial program)] via
    {!Pass.run_all}.  The log lists the passes, every pass's decision,
    then each padded array's [pad_before]. *)
val optimize :
  ?passes:Pass.t list -> Mlc_cachesim.Machine.t -> Program.t -> result

(** Convenience: simulate original vs optimized and report the paper's
    metrics (per-level miss rates and model-time improvement). *)
val report :
  ?passes:Pass.t list -> Mlc_cachesim.Machine.t -> Program.t -> string
