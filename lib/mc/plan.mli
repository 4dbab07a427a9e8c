(** Sparse schedule plans.

    A plan is the set of {e deviations} from the default schedule: pairs of
    (choice-point position, non-default pick).  Positions count every choice
    point the scheduler encounters during a run, in order; any position not
    named by the plan takes the default pick 0, which reproduces the
    engine's deterministic schedule.  The sparse form is what makes
    artifacts small and shrinking literal: removing one pair removes one
    deviation. *)

type t = (int * int) list
(** Position-sorted; picks are never 0. *)

val empty : t
val deviations : t -> int

val find : t -> pos:int -> int option
val set : t -> pos:int -> pick:int -> t
(** [pick = 0] removes any deviation at [pos]. *)

val remove : t -> pos:int -> t

val to_string : t -> string
(** ["-"] when empty, else ["pos=pick pos=pick ..."]. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Failure] on malformed input. *)
