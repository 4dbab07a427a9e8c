(** A timing wrapper around a {!Mp_dsm.Dsm_intf.S} implementation, used only
    by the traced run.

    The applications are functors over [Dsm_intf.S], so wrapping the DSM
    instruments them without touching their code or the library.  Every typed
    read and write is an access.  An access is {e fast} when the engine's
    observer saw no [Block] while it ran: it completed on the memsim path
    (view lookup, protection check, physical-memory copy) without a fault
    handler parking the thread.  One access in [sample_period] is timed with
    the monotonic clock; the rest only bump counters, so the clock's cost
    stays a small share of the traced run.  The untraced runs never use this
    module. *)

let sample_period = 17
(* prime, so the sample does not lock onto the power-of-two strides of the
   applications' inner loops *)

type counters = {
  mutable blocks : int;  (** engine [Block] events *)
  mutable accesses : int;
  mutable fast : int;
  mutable sampled : int;  (** fast accesses that were timed *)
  mutable sampled_ns : int;  (** their summed duration, clock cost included *)
  mutable sync_ops : int;  (** barrier and lock calls *)
  mutable mallocs : int;
  mutable countdown : int;
}

let c =
  {
    blocks = 0;
    accesses = 0;
    fast = 0;
    sampled = 0;
    sampled_ns = 0;
    sync_ops = 0;
    mallocs = 0;
    countdown = sample_period;
  }

let reset () =
  c.blocks <- 0;
  c.accesses <- 0;
  c.fast <- 0;
  c.sampled <- 0;
  c.sampled_ns <- 0;
  c.sync_ops <- 0;
  c.mallocs <- 0;
  c.countdown <- sample_period

(** Count the engine's [Block] events into {!c}. *)
let observe engine =
  Mp_sim.Engine.set_observer engine
    (Some
       (fun ~time:_ -> function
         | Mp_sim.Engine.Block _ -> c.blocks <- c.blocks + 1
         | Mp_sim.Engine.Resume _ -> ()))

let clock_ns () = Int64.to_int (Monotonic_clock.now ())

let[@inline] start () =
  c.accesses <- c.accesses + 1;
  c.countdown <- c.countdown - 1;
  if c.countdown = 0 then begin
    c.countdown <- sample_period;
    clock_ns ()
  end
  else -1

let[@inline] finish ~blocks t0 =
  if c.blocks = blocks then begin
    c.fast <- c.fast + 1;
    if t0 >= 0 then begin
      c.sampled <- c.sampled + 1;
      c.sampled_ns <- c.sampled_ns + (clock_ns () - t0)
    end
  end

let[@inline] load read ctx addr =
  let blocks = c.blocks in
  let t0 = start () in
  let v = read ctx addr in
  finish ~blocks t0;
  v

let[@inline] store write ctx addr v =
  let blocks = c.blocks in
  let t0 = start () in
  write ctx addr v;
  finish ~blocks t0

(** Mean ns a timed access spends in the clock reads and bookkeeping
    around the call: the sampled time of a no-op access.  Subtracted from
    the sampled means; resets the counters. *)
let instrument_overhead_ns () =
  reset ();
  let noop = Sys.opaque_identity (fun () i -> i) in
  for i = 1 to 100 * sample_period * 1000 do
    ignore (Sys.opaque_identity (load noop () i))
  done;
  let ns = float_of_int c.sampled_ns /. float_of_int c.sampled in
  reset ();
  ns

module Make (D : Mp_dsm.Dsm_intf.S) :
  Mp_dsm.Dsm_intf.S with type t = D.t and type ctx = D.ctx = struct
  include D

  let read_f64 ctx addr = load D.read_f64 ctx addr
  let read_int ctx addr = load D.read_int ctx addr
  let read_i32 ctx addr = load D.read_i32 ctx addr
  let read_f32 ctx addr = load D.read_f32 ctx addr
  let read_u8 ctx addr = load D.read_u8 ctx addr
  let write_f64 ctx addr v = store D.write_f64 ctx addr v
  let write_int ctx addr v = store D.write_int ctx addr v
  let write_i32 ctx addr v = store D.write_i32 ctx addr v
  let write_f32 ctx addr v = store D.write_f32 ctx addr v
  let write_u8 ctx addr v = store D.write_u8 ctx addr v

  let barrier ctx =
    c.sync_ops <- c.sync_ops + 1;
    D.barrier ctx

  let lock ctx l =
    c.sync_ops <- c.sync_ops + 1;
    D.lock ctx l

  let malloc t size =
    c.mallocs <- c.mallocs + 1;
    D.malloc t size
end
