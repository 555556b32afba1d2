(** One value per case of the reachability rule; user.ml is the only
    user outside this library. *)

(** Beta.shared has the same name and a user; this one has none. *)
val shared : int -> int

(** Used only through a module alias. *)
val aliased : int

(** An operator without a user: reported as [Alpha.( ++ )]. *)
val ( ++ ) : int -> int -> int

module Sub : sig
  (** A submodule value without a user: reported as [Alpha.Sub.depth]. *)
  val depth : int
end

(** Has a user, and is listed anyway: a stale entry. *)
val stale : int

(** Listed without a reason. *)
val bare : int

(** Listed with a reason: exempt. *)
val oracle : int
