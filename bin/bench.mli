(** [mlc bench [fast] [SECTION...]]: the paper's tables and figures. *)
val cmd : unit Cmdliner.Cmd.t
