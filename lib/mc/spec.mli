(** An executable sequential specification of DSM memory, checked by
    refinement against every explored schedule.

    The spec is a MapSpec-style state machine: a map from minipage
    locations to the value of their newest write, advanced by simulating
    the schedule's recorded read/write/sync history {e in execution order}
    (the order the scheduler actually ran the operations, which is the
    order the workload recorded them).  Two refinement relations:

    - {!Sc} — sequential consistency at operation completion instants.
      Every read must return exactly the spec map's current value: the
      implementation's completed operations, taken in completion order,
      must {e be} an execution of the atomic-memory spec.  This is
      strictly stronger than the coherence log's write-rank oracle, which
      only demands per-host monotonicity.

    - {!Weak} — release consistency.  Reads may lag the spec map (a host
      may still be on a pre-acquire copy) but must never run ahead of it,
      never regress below the host's own observation front, and never
      regress below the host's {e happens-before floor}: acquiring a lock
      inherits everything its previous releasers had observed or written;
      a barrier releases into and acquires from a global channel.  The
      floor is what catches a lost release diff — the acquirer of the same
      lock reads below the rank the release published, which no
      write-rank or invariant oracle can see (the lost value is never
      observed by anyone).

    Histories are recorded by the scenario workload into a {!hist} —
    separate from the coherence log, so attaching refinement changes no
    fingerprints. *)

type entry =
  | Read of { host : int; loc : int; value : int }
  | Write of { host : int; loc : int; value : int }
  | Acquire of { host : int; key : int }
  | Release of { host : int; key : int }
  | Barrier of { host : int }

type hist

val hist : unit -> hist
val record : hist -> entry -> unit
val entries : hist -> entry list

type mode = Sc | Weak

type verdict = {
  passed : bool;
  reads_checked : int;  (** reads the simulation validated *)
  violations : string list;  (** each prefixed ["refinement: "] *)
}

val check : ?initial:int -> ?hb:bool -> mode:mode -> entry list -> verdict
(** Simulate [entries] in order against the spec under [mode].  [initial]
    (default 0) is the pre-history value of every location, rank 0.
    [hb] (default [true]) enables the happens-before machinery — fronts,
    lock channels, the barrier channel.  Crash scenarios pass [~hb:false]:
    recovery rollback legitimately regresses what a host has observed, so
    only value provenance and the no-reads-from-the-future rule apply. *)
