(** The program inventory of Table 1, with builders at their default
    (paper) problem sizes. *)

open Mlc_ir

type category = Kernel | Nas | Spec

type entry = {
  name : string;        (** Table 1 name, e.g. "EXPL512" *)
  description : string; (** Table 1 description *)
  category : category;
  paper_lines : int;    (** source-line count from Table 1 *)
  build : unit -> Program.t;         (** at the default size *)
  build_sized : (int -> Program.t) option;  (** size-parameterized, when meaningful *)
}

(** Table 1's three groups, kernels then NAS then SPEC. *)
val all : entry list

(** @raise Not_found *)
val find : string -> entry

(** Case-insensitive lookup by Table 1 name — the resolution step behind
    the experiment engine's by-name job specs and cache keys. *)
val find_opt : string -> entry option

val category_name : category -> string
