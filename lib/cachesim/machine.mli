(** A machine bundles the cache geometry the optimizer sees with the cost
    model used to price simulated runs.  The presets below are where a
    machine's latencies are written.  The optimization algorithms in
    [Locality] consult the geometries (treating every level as
    direct-mapped, as the paper prescribes even for associative caches),
    and fusion's profitability model reads the L2 and memory latencies. *)

type t = {
  name : string;
  geometries : Level.geometry list;  (** L1 first *)
  cost : Cost_model.t;
}

(** The paper's evaluation machine: Sun UltraSparc I.  Direct-mapped
    16K/32B L1 and 512K/64B L2; a 1-cycle L1 hit, a 6-cycle L2 hit,
    50-cycle memory and a 143 MHz clock. *)
val ultrasparc : t

(** Three-level extension machine (DEC Alpha 21164 style).  Direct-mapped
    8K/32B L1, 128K/64B L2 and 2M/64B L3; 1-, 5- and 20-cycle hits,
    80-cycle memory and a 300 MHz clock. *)
val alpha21164 : t

(** [with_associativity k t] turns every level into a [k]-way LRU cache of
    the same capacity, for the paper's claim that treating k-way caches as
    direct-mapped captures nearly all the benefit. *)
val with_associativity : int -> t -> t

(** L1 capacity in bytes ([S1] in the paper). *)
val s1 : t -> int

(** Capacity of level [i] (0-based). *)
val level_size : t -> int -> int

(** Largest line size at any level ([Lmax] in the paper). *)
val lmax : t -> int

(** Line size of level [i] (0-based). *)
val level_line : t -> int -> int

val n_levels : t -> int
