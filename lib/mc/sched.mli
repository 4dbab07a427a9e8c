(** The controlled scheduler behind mpcheck.

    Installs an {!Mp_sim.Engine.chooser} that turns the engine's two
    perturbation hooks into numbered {e choice points}:

    - {e tie points} — several events share one simulated instant; the pick
      selects which runs first (default 0 = lowest sequence number, the
      engine's deterministic order);
    - {e net points} — a message is being sent; the pick delays its delivery
      by [pick × quantum_us] before the fabric's FIFO clamp (default 0 = no
      perturbation), so protocol FIFO assumptions are never violated.

    Every choice point is logged as a {!step}; the non-default picks taken
    form a {!Plan.t}, which replayed in {!Follow} mode reproduces the
    schedule bit-for-bit. *)

type step =
  | Tie of { n : int; pick : int; time : float; labels : string array }
      (** [n ≥ 2] same-instant events at instant [time], their engine labels,
          and the pick.  [(time, label)] identifies an event stably across
          tie reordering — promoting a tie alternative never moves its
          timestamp — which is what the DPOR sleep sets key on. *)
  | Net of { n : int; pick : int; time : float; label : string }
      (** A send on channel [label] at instant [time];
          [n = max_delay_steps + 1] alternatives. *)

type mode =
  | Follow  (** plan picks where given, default 0 elsewhere *)
  | Random of { seed : int; prob : float }
      (** plan picks where given; elsewhere deviate with probability [prob],
          uniform over the non-default alternatives *)

type t

val create :
  quantum_us:float -> max_delay_steps:int -> mode:mode -> plan:Plan.t -> unit -> t

val install : t -> Mp_sim.Engine.t -> unit
(** Install on the engine; stays active for the engine's lifetime. *)

val choice_points : t -> int
(** Choice points encountered so far. *)

val steps : t -> step array
(** The full step log, in encounter order (index = position). *)

val taken : t -> Plan.t
(** The non-default picks actually taken (= the input plan in [Follow]
    mode once every planned position was reached). *)

val independent : string -> string -> bool
(** Two same-instant events commute if they run on different hosts: swapping
    them cannot change the reachable state.  Conservative — [false] whenever
    either label names no host. *)
