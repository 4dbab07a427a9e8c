(** Binary min-heap keyed by [(time, seq)].

    The secondary [seq] key makes pops of equal-time entries FIFO, which keeps
    the whole simulation deterministic. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Smallest [(time, seq)] entry, or [None] when empty. *)

val pop_min_group : 'a t -> (float * (int * 'a) list) option
(** Removes {e every} entry scheduled for the minimal time and returns them
    in [seq] order together with their [seq] keys, so a scheduler that runs
    only one of them can {!push} the rest back with their ordering intact.
    [None] when empty. *)
