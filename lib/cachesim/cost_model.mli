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

(** [breakdown_of_stats t stats] prices per-level counters (L1 first) as
    additive terms: one [("L<i>", cycles)] pair per level, where each
    access recorded at level [i] pays [hit_cycles.(i)], plus a final
    [("memory", cycles)] term, where the last level's misses pay
    [memory_cycles].  Both simulator backends hand over the same
    {!Stats.t} list, so they price identically.
    @raise Invalid_argument on an empty list or a list longer than
    [hit_cycles]. *)
val breakdown_of_stats : t -> Stats.t list -> (string * float) list

(** [cycles breakdown] is the sum of {!breakdown_of_stats}'s terms,
    added in order from [0.0]: the execution time of a run, priced
    once. *)
val cycles : (string * float) list -> float

(** [mflops t ~flops cycles] is simulated MFLOPS: [flops] floating-point
    operations over [cycles] at [clock_hz] (0 when [cycles] is not
    positive). *)
val mflops : t -> flops:int -> float -> float

(** [improvement ~orig ~opt] is the paper's "execution time improvement":
    (orig − opt) / orig, in percent. *)
val improvement : orig:float -> opt:float -> float
