(** Per-host execution-time breakdown (the right-hand chart of Figure 6):
    computation, prefetch wait, read-fault wait, write-fault wait,
    synchronization wait. *)

type t = {
  mutable compute : float;
  mutable prefetch : float;
  mutable read_fault : float;
  mutable write_fault : float;
  mutable synch : float;
}

val create : unit -> t
val add : t -> t -> t
val zero : unit -> t

val to_list : t -> (string * float) list
(** [(label, µs)] rows in bucket order. *)

val fractions : t -> (string * float) list
(** [(label, share)] rows summing to 1 (all zeros when total is 0). *)
