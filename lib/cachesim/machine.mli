(** A machine bundles the cache geometry the optimizer sees with the cost
    model used to price simulated runs.  The optimization algorithms in
    [Locality] consult only the geometries (treating every level as
    direct-mapped, as the paper prescribes even for associative caches). *)

type t = {
  name : string;
  geometries : Level.geometry list;  (** L1 first *)
  cost : Cost_model.t;
}

(** The paper's evaluation machine: Sun UltraSparc I. *)
val ultrasparc : t

(** Three-level extension machine (DEC Alpha 21164 style). *)
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
