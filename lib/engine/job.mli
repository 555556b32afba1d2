(** Experiment jobs: pure closures over serializable specs.

    A job names everything its simulation depends on — the benchmark (by
    Table 1 registry name or constructive recipe), the layout strategy,
    the machine with its hierarchy options, and any attached analytical
    models — as plain data.  {!execute} rebuilds the program, runs the
    passes and the simulator, and returns a marshal-friendly {!result};
    because the spec fully determines the result, specs double as
    content-addressed cache keys (see {!Cache}) and jobs can run on any
    domain of the worker pool in any order. *)

open Mlc_ir
module Cs = Mlc_cachesim
module An = Mlc_analysis
module L = Locality

(** Raised by {!execute} on an unresolvable spec (unknown benchmark or
    machine name, bad nest index). *)
exception Spec_error of string

(** How to (re)build the program under test. *)
type program_spec =
  | Registry of { name : string; n : int option }
      (** Table 1 benchmark by name; [n] overrides the problem size. *)
  | Paper of { name : string; n : int }
      (** Worked example from the paper text ("figure2", "figure6_fused"). *)
  | Fused of { base : program_spec; at : int; max_shift : int }
      (** [Fusion.fuse_program] applied to nests [at], [at+1]. *)
  | Matmul of { n : int }
  | Tiled_matmul of { n : int; h : int; w : int }
  | Time_sweep of { n : int; steps : int }
  | Time_tiled of { n : int; steps : int; block : int }

(** How to lay the arrays out. *)
type layout_spec =
  | Strategy of L.Pipeline.strategy
  | Initial
  | Pad_assoc of { size : int; line : int; assoc : int }
      (** Associativity-aware PAD (the ablation's explicit variant). *)

(** Machine plus hierarchy construction options. *)
type machine_spec = {
  base : string;                (** "ultrasparc" or "alpha" *)
  assoc : int option;           (** override every level's associativity *)
  write_allocate : bool option; (** default: the simulator's (true) *)
  prefetch_levels : int list;   (** levels with next-line prefetching *)
}

(** [machine base] with no overrides. *)
val machine : string -> machine_spec

(** Nests fed to the Section 4 two-level accounting. *)
type count_target =
  | Nests of int list   (** by index *)
  | Largest_body        (** the nest with the most references (fused core) *)

type spec = {
  program : program_spec;
  layout : layout_spec;
  machine : machine_spec;
  predict : bool;
      (** also run the analytical miss predictor on the same layout *)
  count : (layout_spec * count_target) option;
      (** also run [Fusion_model.count] — under its own layout, as
          Figure 12 counts under GROUPPAD while simulating L2MAXPAD *)
  backend : Interp.backend;
      (** which simulator to ask {!Interp.run} for.  Part of the cache
          key, so warm results never cross backends.  [Interp.run] serves
          [`Fast] specs with [prefetch_levels] or an associative level on
          the reference cascade (Fast_sim simulates only direct-mapped
          levels without prefetch) and counts one [sim.fast.fallbacks]
          each. *)
}

(** Spec constructor with the common defaults (ultrasparc, fast backend,
    no extras). *)
val simulate :
  ?machine:machine_spec ->
  ?predict:bool ->
  ?count:layout_spec * count_target ->
  ?backend:Interp.backend ->
  layout:layout_spec ->
  program_spec ->
  spec

(** Figure 12's (original, fused) pair for nests [at] and [at + 1] of
    [base]: the original counted on those two nests, the fusion
    ([max_shift = 4]) on its largest body, both counted under GROUPPAD
    and simulated under L2MAXPAD (which is assumed to keep on L2 whatever
    L1 loses). *)
val fusion_pair :
  ?machine:machine_spec -> at:int -> program_spec -> spec * spec

(** Stable, human-readable serialization — the digest input for cache
    keys.  Equal specs have equal canonical strings and vice versa. *)
val canonical : spec -> string

(** Short label for progress lines. *)
val describe : spec -> string

(** {2 Name tables}

    The one mapping between command-line names and values; the CLI's
    [--machine], [--strategy] and [--strategies] parse against these. *)

(** Machine names ([machine_spec.base]) in presentation order. *)
val machines : (string * Cs.Machine.t) list

(** Strategy tags in presentation order ([orig], [pad], ...). *)
val strategies : (string * L.Pipeline.strategy) list

val strategy_tag : L.Pipeline.strategy -> string

(** The machine a spec denotes.
    @raise Spec_error on an unknown [base] *)
val build_machine : machine_spec -> Cs.Machine.t

(** The program a spec denotes.
    @raise Spec_error on an unknown name or a size the program does not take
    @raise Locality.Fusion.Illegal when a [Fused] spec has no legal shift *)
val build_program : program_spec -> Program.t

(** Everything a job produces, as plain data (safe to [Marshal]). *)
type result = {
  key : string;                        (** [canonical] of the spec *)
  interp : Interp.result;
  level_stats : Cs.Stats.t list;       (** [interp.levels] *)
  cost_breakdown : (string * float) list;  (** additive cycle terms *)
  predicted : float list option;       (** analytical per-level misses *)
  counts : An.Fusion_model.counts option;  (** Section 4 accounting *)
}

(** Run the job on a fresh hierarchy.  Pure up to allocation: equal specs
    produce equal results, on any domain.
    @raise Spec_error on an unresolvable spec
    @raise Locality.Fusion.Illegal when a [Fused] spec has no legal shift *)
val execute : spec -> result
