(** Synchronization primitives for simulated processes.

    These mirror the Win32 primitives Millipage is built on: waitable events
    (auto- and manual-reset) and mutexes.  All [wait] operations must run
    inside an {!Engine.spawn}ed process. *)

module Event : sig
  type t

  val create : ?auto_reset:bool -> ?name:string -> unit -> t
  (** [auto_reset] defaults to [true]: a successful wait consumes the signal,
      as with the Win32 events Millipage threads block on. *)

  val wait : t -> unit
  (** Block until the event is signaled.  Returns immediately when already
      signaled (consuming the signal if auto-reset). *)

  val set : t -> unit
  (** Signal the event.  Auto-reset: wakes exactly one waiter (or latches if
      none).  Manual-reset: wakes all waiters and stays signaled. *)

  val reset : t -> unit
end

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val unlock : t -> unit
  (** Raises [Invalid_argument] when the mutex is not held. *)
end
