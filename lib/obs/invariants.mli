(** Trace-driven protocol invariant checker.

    Replays a complete, chronologically ordered typed event stream and
    asserts the SW/MR protocol invariants:

    - every [Fault] is eventually matched by a [Fault_done] on its span;
    - no [Reply] without a preceding [Request] on the same span;
    - manager queue conservation: every [Queued] has exactly one [Dequeued]
      and nothing is left queued at end of run;
    - never two concurrent writers on a minipage: a write [Forward]/grant
      opens a write interval closed by that span's [Ack], and a second write
      grant inside the interval is flagged;
    - every [Inval] is matched by an [Inval_ack].

    The stream must be lossless — check {!Recorder.dropped} first. *)

val check : Event.t list -> string list
(** Human-readable violations, empty when the trace is clean. *)
