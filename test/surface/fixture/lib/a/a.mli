(* The fixture's one library module.  Its values cover each way a value
   can be used, or not. *)

val used : int -> int
val via_alias : int
val via_open : int

val dead : int
(** Named in a comment, a string and a test, none of them a caller. *)

val tested : unit -> bool

module Inner : sig
  val nested_used : int
  val nested_dead : int
end
