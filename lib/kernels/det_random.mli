(** Deterministic pseudo-random sequences (64-bit LCG) for building
    reproducible gather tables: every run of the suite sees the same
    irregular meshes, sort keys and sparse patterns.

    The tables run to a million entries, so they live in the major heap.
    Fill a large [int array] by a loop over [Array.make n 0], never with
    [Array.init] or [Array.map]: their polymorphic store goes through the
    write barrier on every element, which doubles the fill time.  The
    kernel builders follow the same rule. *)

type t

val create : seed:int -> t

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** A table of [n] indices in [0, bound): the first [n] draws of
    [int (create ~seed) bound], in order.  [n = 0] gives [[||]] whatever
    [bound]; otherwise [bound <= 0] raises [Invalid_argument].
    @raise Invalid_argument if [n < 0]. *)
val table : seed:int -> n:int -> bound:int -> int array

(** A permutation of [0, n) (Fisher–Yates from the top, one draw per
    position). @raise Invalid_argument if [n < 0]. *)
val permutation : seed:int -> n:int -> int array
