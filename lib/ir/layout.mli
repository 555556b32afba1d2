(** Memory layout: assigns every array a base address.

    Mirrors the paper's SUIF setup, where all optimizable variables become
    fields of one big global structure so that compiler passes control
    base addresses by reordering fields and inserting pad variables.
    Here a layout is the declaration-ordered list of arrays, each with an
    inter-variable pad placed before it ([pad_before], the knob PAD /
    GROUPPAD / L2MAXPAD turn) and an intra-variable pad that lengthens
    each column ([intra_pad], used to break self-conflicts in ADI32 and
    ERLE64). *)

type t

(** Packed layout: arrays in declaration order, no pads. *)
val initial : Program.t -> t

val of_arrays : Array_decl.t list -> t

(** [set_pad_before t name bytes] replaces the pad in front of [name]
    (shifting it and every later array). *)
val set_pad_before : t -> string -> int -> t

(** [add_pad_before t name bytes] increments the pad. *)
val add_pad_before : t -> string -> int -> t

val pad_before : t -> string -> int

(** [set_intra_pad t name elems] pads each column of [name] by [elems]
    extra elements (changes addressing of higher dimensions). *)
val set_intra_pad : t -> string -> int -> t

val intra_pad : t -> string -> int

(** Base address in bytes (aligned to the element size). *)
val base : t -> string -> int

(** Every array's base, in declaration order — one fold, for callers that
    need many bases of the same layout. *)
val bases : t -> (string * int) list

(** Declaration with the intra-pad folded into the first dimension — what
    addressing actually uses. *)
val padded_decl : t -> string -> Array_decl.t

val array_names : t -> string list

(** End of the last array (bytes). *)
val total_bytes : t -> int

(** Byte address of an element given 0-based indices. *)
val address : t -> string -> int list -> int

(** Byte address of an affine reference, as an affine expression of the
    loop variables: [base + elem_size * Σ subᵢ·strideᵢ].
    @raise Invalid_argument on gather subscripts. *)
val address_expr : t -> Ref_.t -> Expr.t

(** Any reference's byte address, split for compilation:
    [(affine, gathers)] with [address = affine + Σ scale · table.(index)]
    over the [(scale, table, index)] terms of [gathers], one per gather
    subscript in subscript order.  [affine] holds the base, the pads and
    every affine dimension; [gathers] is empty exactly when {!address_expr}
    is defined, and then [affine] is its result. *)
val address_parts : t -> Ref_.t -> Expr.t * (int * int array * Expr.t) list

(** Byte address of any reference under [env], evaluated subscript by
    subscript: the oracle that {!address_parts} and {!address_expr} are
    checked against. *)
val address_of_ref : t -> (string -> int) -> Ref_.t -> int

(** [address_of_ref] less the array's base: the byte offset of the
    element within its array, which no inter-variable pad changes. *)
val offset_of_ref : t -> (string -> int) -> Ref_.t -> int

val pp : Format.formatter -> t -> unit
