(* Conservation: quantities counted on different paths must agree.  Every
   app runs at 4 hosts under SC, RC and adaptive consistency, on a reliable and
   on a lossy fabric, with the recorder on and a ring large enough to keep
   every event; the instance's counter table, the event stream, the
   recorder's metrics and the profiler then have to tell the same story. *)

open Mp_sim
open Mp_millipage
open Mp_apps
module M = Mp_dsm.Millipage_impl
module Sor_m = Sor.Make (M)
module Is_m = Is.Make (M)
module Water_m = Water.Make (M)
module Lu_m = Lu.Make (M)
module Tsp_m = Tsp.Make (M)

let apps : (string * (Dsm.t -> unit)) list =
  [
    ( "sor",
      fun d -> ignore (Sor_m.setup d { Sor.default_params with rows = 64; iterations = 4 }) );
    ( "is",
      fun d ->
        ignore
          (Is_m.setup d { Is.default_params with keys = 4096; iterations = 3; max_key = 64 })
    );
    ( "water",
      fun d ->
        ignore (Water_m.setup d { Water.default_params with molecules = 24; iterations = 2 })
    );
    ("lu", fun d -> ignore (Lu_m.setup d { Lu.default_params with n = 64; block = 32 }));
    ( "tsp",
      fun d -> ignore (Tsp_m.setup d { Tsp.default_params with cities = 8; level = 3 }) );
  ]

let nets =
  [
    ("reliable", Mp_net.Fabric.no_faults);
    ("drop 0.05", { Mp_net.Fabric.no_faults with drop = 0.05 });
  ]

let modes = [ `Sc; `Rc; `Adaptive ]

let check_cell (app, setup) (net, faults) mode =
  let cell =
    Printf.sprintf "%s/%s/%s" app net (Dsm.Config.Consistency.mode_name mode)
  in
  let config =
    {
      Dsm.Config.default with
      net = { Dsm.Config.Net.default with faults; seed = 7 };
      consistency = { Dsm.Config.Consistency.default with mode };
    }
  in
  let dsm = Dsm.create (Engine.create ()) ~hosts:4 ~config () in
  let obs = Dsm.obs dsm in
  Mp_obs.Recorder.set_capacity obs (1 lsl 20);
  Mp_obs.Recorder.set_enabled obs true;
  let profile = Mp_obs.Profile.attach obs in
  setup dsm;
  Dsm.run dsm;
  let counter = Mp_util.Stats.Counters.get (Dsm.counters dsm) in
  let metric =
    Mp_util.Stats.Counters.get (Mp_obs.Metrics.counters (Mp_obs.Recorder.metrics obs))
  in
  let events = Mp_obs.Recorder.events obs in
  let count p =
    List.length (List.filter (fun (e : Mp_obs.Event.t) -> p e.kind) events)
  in
  let check what = Alcotest.(check int) (cell ^ ": " ^ what) in
  check "ring kept every event" 0 (Mp_obs.Recorder.dropped obs);
  let sends = counter "send.count" in
  check "send.count = Msg_send events" sends
    (count (function Mp_obs.Event.Msg_send _ -> true | _ -> false));
  check "send.count = profile host msgs" sends
    (List.fold_left
       (fun acc (_, c) -> acc + Mp_obs.Profile.host_msgs c)
       0 (Mp_obs.Profile.hosts profile));
  let retx = counter "transport.retransmits" in
  check "retransmits = Retransmit events" retx
    (count (function Mp_obs.Event.Retransmit _ -> true | _ -> false));
  check "retransmits = recorder metric" retx (metric "transport.retransmits");
  check "faults = recorder fault metrics"
    (Dsm.read_faults dsm + Dsm.write_faults dsm)
    (metric "fault.read" + metric "fault.write");
  if mode = `Adaptive then
    check "mode switches = switch log"
      (counter "rc.promotes" + counter "rc.demotes")
      (List.length (Dsm.mode_switch_log dsm));
  if faults.Mp_net.Fabric.drop > 0.0 then
    Alcotest.(check bool) (cell ^ ": loss exercised the transport") true (retx > 0)

let test_conservation () =
  List.iter
    (fun app -> List.iter (fun net -> List.iter (check_cell app net) modes) nets)
    apps

let suite = [ Alcotest.test_case "counters agree across paths" `Slow test_conservation ]
