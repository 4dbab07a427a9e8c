(** Shared plumbing for the paper-reproduction benches. *)

open Mp_sim
open Mp_millipage

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt
let counter dsm name = Mp_util.Stats.Counters.get (Dsm.counters dsm) name

(* Set MP_OBS_DIR=<dir> to capture full observability traces from the bench
   runs: every DSM built through [mk_dsm] records typed events, and
   [obs_dump] writes a Perfetto JSON per experiment into that directory. *)
let obs_dir = Sys.getenv_opt "MP_OBS_DIR"

let arm_obs dsm =
  match obs_dir with
  | None -> ()
  | Some _ ->
    let obs = Dsm.obs dsm in
    Mp_obs.Recorder.set_capacity obs (1 lsl 20);
    Mp_obs.Recorder.set_enabled obs true

let obs_dump name dsm =
  match obs_dir with
  | None -> ()
  | Some dir ->
    let obs = Dsm.obs dsm in
    let events = Mp_obs.Recorder.events obs in
    let file = Filename.concat dir (name ^ ".perfetto.json") in
    Mp_obs.Export.write_perfetto file events;
    note "  [obs] %s: %d events -> %s" name (List.length events) file

let mk_dsm ?(polling = Mp_net.Polling.nt_mode) ?(views = 32)
    ?(object_size = 16 * 1024 * 1024) ?(chunking = Mp_multiview.Allocator.Fine 1)
    ?(seed = 1) ?(homes = Dsm.Config.Homes.default) hosts =
  let e = Engine.create () in
  let config =
    { Dsm.Config.default with polling; views; object_size; chunking; seed; homes }
  in
  let dsm = Dsm.create e ~hosts ~config () in
  arm_obs dsm;
  (e, dsm)

(* Run a one-shot probe inside a simulated thread and return the measured
   duration in µs. *)
let timed_probe (e : Engine.t) f =
  let out = ref nan in
  let wrap ctx =
    let t0 = Engine.now e in
    f ctx;
    out := Engine.now e -. t0
  in
  (wrap, out)

let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

let dev ~paper ~ours =
  if paper = 0.0 then "-" else Printf.sprintf "%+.0f%%" (100.0 *. ((ours /. paper) -. 1.0))
