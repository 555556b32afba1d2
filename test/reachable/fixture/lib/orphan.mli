(** A unit that no other unit imports. *)
val unused : int
