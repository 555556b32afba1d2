(** The paper's layout-diagram model (Figures 3, 4, 5, 7).

    Every affine reference of a nest becomes a "dot" at its cache position
    (address at the nest's first iteration, mod the cache size).  Because
    the references of a group move in lockstep, relative positions are
    loop-invariant, so one snapshot decides everything:

    - {b severe conflict}: two dots of {e different} arrays within one
      cache line of each other circularly — a ping-pong conflict miss on
      every iteration (what PAD eliminates);
    - {b group-reuse arc}: consecutive distinct offsets of a uniformly
      generated group; the trailing (lower-offset) reference reuses the
      leading one's column one outer iteration later {e iff} the span fits
      in the cache and no other dot lies strictly under the arc. *)

open Mlc_ir

type dot = {
  ref_index : int;  (** body-order index in the nest *)
  ref_ : Ref_.t;
  address : int;    (** absolute byte address at the first iteration *)
  position : int;   (** [address mod cache_size] *)
}

type arc = {
  array : string;
  trailing : int;   (** ref index that can reuse *)
  leading : int;    (** ref index whose data is reused *)
  span : int;       (** bytes between them (usually one column) *)
}

type conflict = {
  a : int;  (** ref index *)
  b : int;
}

(** Dots of a nest for a cache of [size] bytes.  The first iteration is
    the point where every loop variable sits at its lower bound. *)
val dots : Layout.t -> size:int -> Nest.t -> dot list

(** [label d] names a dot's reference in the kernel language, with [=]
    before a write: [B(i,j+1)], [=A(2*i,j)]. *)
val label : dot -> string

(** Arcs are layout-dependent only through intra-variable padding (the
    span is the padded column distance); inter-variable pads do not move
    them. *)
val arcs : Layout.t -> ?min_span:int -> Nest.t -> arc list

(** Severe conflicts: pairs of references to different arrays whose
    circular distance on a [size]-byte cache is under [line] bytes.
    [include_same_array] additionally reports same-array conflicts between
    distinct references (the target of {e intra}-variable padding). *)
val severe_conflicts :
  Layout.t -> size:int -> line:int -> ?include_same_array:bool -> Nest.t -> conflict list

(** [self_conflict layout ~size ~line array nest]: whether
    [severe_conflicts ~include_same_array:true] reports a pair of two of
    [array]'s own references in [nest].  It places only that array's
    references, and stops at the first such pair. *)
val self_conflict : Layout.t -> size:int -> line:int -> string -> Nest.t -> bool

(** Distance between two cache positions around a cache of [size]
    bytes. *)
val circular_distance : int -> int -> int -> int

(** [under_arc ~size ~trailing ~span q]: a dot at cache position [q] lies
    strictly under the arc whose trailing dot sits at position [trailing]
    iff [0 < (q - trailing) mod size < span]. *)
val under_arc : size:int -> trailing:int -> span:int -> int -> bool

(** [arc_preserved dots ~size arc] — the "no dots under the arc" test:
    the span fits in the cache and {!under_arc} holds for no dot other
    than the arc's own two. *)
val arc_preserved : dot list -> size:int -> arc -> bool

(** Count of references exploiting group reuse on this cache — the value
    GROUPPAD maximizes. *)
val preserved_count : Layout.t -> size:int -> Nest.t -> int
