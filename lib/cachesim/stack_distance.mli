(** LRU stack-distance analysis (Mattson et al.).

    For each access, the stack distance is the number of {e distinct}
    cache lines touched since the previous access to the same line
    (infinite for first touches).  A fully associative LRU cache of
    capacity [c] lines misses exactly on the accesses whose distance is
    [>= c] — so one pass over the trace yields the miss count for
    {e every} capacity at once.  This quantifies how much locality is
    available to each level of a hierarchy independent of conflicts,
    which is the backdrop to the paper's question of which level to
    optimize for. *)

type t

(** [analyze ~line trace] — trace of byte addresses, analyzed at
    line granularity (default 32). *)
val analyze : ?line:int -> int array -> t

(** Accesses analyzed. *)
val total : t -> int

(** First-touch (cold) accesses. *)
val cold : t -> int

(** Misses of a fully associative LRU cache with [lines] lines
    (= cold + accesses with distance >= lines). *)
val misses_at : t -> lines:int -> int

(** Miss counts at the given capacities (in lines), as
    [(lines, misses)]. *)
val miss_curve : t -> capacities:int list -> (int * int) list
