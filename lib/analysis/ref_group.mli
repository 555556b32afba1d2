(** Uniformly generated reference groups.

    Two references belong to the same group when they name the same array
    and their subscripts differ only by constants (Gannon/Wolf–Lam's
    "uniformly generated" sets).  Group reuse — the asset GROUPPAD and the
    fusion model trade in — only exists inside such groups. *)

open Mlc_ir

type member = {
  index : int;        (** position of the reference in the nest's body order *)
  ref_ : Ref_.t;
  offset_bytes : int; (** linearized offset relative to the group leader *)
}

type t = {
  array : string;
  members : member list;  (** sorted by [offset_bytes], lowest first *)
}

(** [of_refs layout refs] partitions the affine references (gather refs
    are skipped).  Offsets are linearized with the layout's padded
    dimensions so intra-variable padding is respected; inter-variable
    pads cancel out within a group. *)
val of_refs : Layout.t -> Ref_.t list -> t list

(** Groups over a nest's body order. *)
val of_nest : Layout.t -> Nest.t -> t list

(** Distinct offsets, low to high (duplicates collapsed). *)
val distinct_offsets : t -> int list
