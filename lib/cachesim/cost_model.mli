(** Latency-weighted execution-time model.

    The paper times programs on a Sun UltraSparc I.  We cannot, so we
    convert simulated per-level miss counts to cycles with an additive
    latency model and report improvements from that (see DESIGN.md's
    substitution table).  The point the paper makes — L2 miss-rate
    reductions are diluted into small wall-clock changes because the
    L1-hit term dominates — falls out of the same arithmetic. *)

type t = {
  hit_cycles : float array;
      (** [hit_cycles.(i)] is the cost of a hit at level [i] (L1 = 0). *)
  memory_cycles : float;  (** cost of going to main memory *)
  clock_hz : float;       (** for MFLOPS conversion *)
}

(** UltraSparc-I-flavoured defaults: 1-cycle L1 hit, 6-cycle L2 hit,
    50-cycle memory, 143 MHz clock. *)
val ultrasparc : t

(** Alpha-21164-flavoured three-level defaults. *)
val alpha21164 : t

(** [cycles_of_stats t stats] prices per-level counters (L1 first): each
    access recorded at level [i] pays [hit_cycles.(i)], and the last
    level's misses pay [memory_cycles].  Both simulator backends hand over
    the same {!Stats.t} list, so they price identically. *)
val cycles_of_stats : t -> Stats.t list -> float

(** [breakdown_of_stats t stats] splits {!cycles_of_stats} into its
    additive terms: one [("L<i>", cycles)] pair per level plus a final
    [("memory", cycles)] term. *)
val breakdown_of_stats : t -> Stats.t list -> (string * float) list

(** {!cycles_of_stats} over the clock. *)
val seconds_of_stats : t -> Stats.t list -> float

(** Simulated MFLOPS given a floating-point operation count. *)
val mflops_of_stats : t -> flops:int -> Stats.t list -> float

(** [improvement ~orig ~opt] is the paper's "execution time improvement":
    (orig − opt) / orig, in percent. *)
val improvement : orig:float -> opt:float -> float
