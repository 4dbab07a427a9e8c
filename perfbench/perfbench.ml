(** The repository benchmark: one workload, one seed, one process.

    {v
    perfbench.exe --workload lu-access --seed 1 --seconds 25 --trace 0
    v}

    Repeats the workload until [--seconds] of wall clock have passed and
    prints, as its last line, one JSON object with [correct], [attempted],
    [failed] and [metrics].  [--trace 0] reports the end-to-end metrics;
    [--trace 1] reports the per-layer metrics of a traced run.  README.md in
    this directory describes the workloads, the metrics and the identity
    gate.  Exits 1 when any repetition fails verification or the gate. *)

open Mp_millipage
module Engine = Mp_sim.Engine
module Scenario = Mp_mc.Scenario
module Explore = Mp_mc.Explore

(* Timings are process CPU seconds, user plus system (getrusage).  On an idle
   core they equal wall seconds for this single-domain program; on a busy
   machine they leave out the time the core ran something else.  Kernel work
   the process causes, such as zero-filling fresh pages, is system time and
   still counts.  {!ref_s} then scales them to a reference core. *)
let now () = Sys.time ()

(* The run length, [--seconds], is wall clock. *)
let wall_now () = float_of_int (Timed.clock_ns ()) *. 1e-9

(* ------------------------------ statistics ------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (max 1 (List.length xs))
let med f xs = median (List.map f xs)
let avg f xs = mean (List.map f xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* words allocated so far; across a call that keeps what it allocates, the
   difference is the call's heap footprint *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ------------------------------ calibration ----------------------------- *)

(* The shared host's speed drifts with its load, and CPU time drifts with it:
   the same LU repetition has taken 0.9 s and 2.4 s of CPU an hour apart,
   while a register-only loop kept its speed.  So every reported timing is
   in reference seconds.  A fixed calibration loop runs between
   repetitions, and a run's CPU seconds are multiplied by [reference_s] over
   the mean CPU time the loop took in that run.  The loop uses nothing from
   lib/, so no change to the simulator moves it.  [reference_s] only fixes
   the unit: a reference second is a CPU second on a core that runs the
   loop in 0.1 s.

   End-to-end timings are means over the repetitions too.  The host's speed
   flickers within a repetition; a mean over the short loops and a mean over
   the longer repetitions both estimate the same average speed, where their
   medians would not. *)
let reference_s = 0.100

type calibration_node = { id : int; weight : float; mutable next : calibration_node option }

let calibration_nodes = 200_000

(* One pass, in the simulator's own style: six rounds that each allocate a
   graph of small records on the OCaml heap, follow its pointers in
   scattered order, and fill 32 MB of bytes, as [Dsm.create] fills physical
   memory.  Of the loops tried against all four workloads across a swing in
   the host's speed, this mix followed them most closely.  Returns its CPU
   seconds. *)
let calibration_loop () =
  let fill = Bytes.make (16 lsl 20) '\000' in
  let t0 = now () in
  let acc = ref 0.0 in
  for round = 1 to 6 do
    let nodes =
      Array.init calibration_nodes (fun id -> { id; weight = float_of_int id; next = None })
    in
    let x = ref 7 in
    Array.iter
      (fun node ->
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        node.next <- Some nodes.(!x mod calibration_nodes))
      nodes;
    let node = ref nodes.(0) in
    for _ = 1 to calibration_nodes do
      acc := !acc +. !node.weight;
      node := Option.value !node.next ~default:nodes.(!node.id)
    done;
    for _ = 1 to 2 do
      Bytes.fill fill 0 (Bytes.length fill) (Char.chr round)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let calibrations = ref []

(* Run the loop once, through [run] (directly, or in a forked child). *)
let calibrate run =
  let s = Spans.with_span "bench.calibrate" (fun () -> run calibration_loop) in
  calibrations := s :: !calibrations

let calibration_s () = mean !calibrations

(* reference seconds of [cpu_s] CPU seconds measured in this run *)
let ref_s cpu_s = cpu_s *. reference_s /. calibration_s ()

(* max over mean of the per-host message counts of a profile *)
let hub_ratio host_msgs =
  let msgs = List.map float_of_int host_msgs in
  ratio (List.fold_left max 0.0 msgs) (mean msgs)

(* ------------------------------- options -------------------------------- *)

type size = Full | Tiny

let workload = ref ""
let seed = ref Identity.default_seed
let seconds = ref 10.0
let trace = ref 0
let size = ref Full
let trace_out = ref ""
let commit = ref "unknown"
let record = ref false

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME lu-access|water-protocol|sor-wide|mc-racer");
    ("--seed", Arg.Set_int seed, "N workload seed: DSM config seed, or mc-racer's walk seed");
    ("--seconds", Arg.Set_float seconds, "S wall seconds to keep repeating the workload");
    ( "--trace",
      Arg.Symbol ([ "0"; "1" ], fun t -> trace := int_of_string t),
      " end-to-end metrics (0) or a traced per-layer run (1)" );
    ( "--size",
      Arg.Symbol ([ "full"; "tiny" ], fun s -> size := if s = "tiny" then Tiny else Full),
      " input size: full (the benchmark) or tiny (smoke test)" );
    ("--trace-out", Arg.Set_string trace_out, "FILE write the traced run's spans here");
    ("--commit", Arg.Set_string commit, "SHA commit stamped on the result");
    ("--record", Arg.Set record, " also print the seed's statistics as Identity.table rows");
  ]

(* -------------------------------- output -------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let count name n = m name "count" (float_of_int n)

(* all the digits of the measurement; never nan or inf *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

type tally = { mutable attempted : int; mutable failed : int }

let print_result tally metrics =
  let field x = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (num x.value) x.unit_ in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.map field metrics))

let print_stamp () =
  Printf.printf
    "{\"stamp\": {\"workload\": %S, \"seed\": %d, \"trace\": %d, \"size\": %S, \"nproc\": %d, \
     \"ocaml\": %S, \"commit\": %S, \"calibration_ms\": %s}}\n\
     %!"
    !workload !seed !trace
    (match !size with Full -> "full" | Tiny -> "tiny")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit
    (num (1e3 *. calibration_s ()))

(* ---------------------------- identity gate ----------------------------- *)

(* The simulated statistics of a seed are deterministic: every repetition
   must reproduce the first one of its seed, and a seed recorded in
   {!Identity.table} must reproduce the recorded values.  A mismatch fails
   the repetition. *)
let firsts : (int * (string * float) list) list ref = ref []

let show stats =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (num v)) stats)

let identical ~seed stats =
  let expect =
    match (!size, Identity.find !workload seed) with
    | Full, Some recorded -> Some recorded
    | _ -> List.assoc_opt seed !firsts
  in
  if not (List.mem_assoc seed !firsts) then begin
    firsts := (seed, stats) :: !firsts;
    if !record then
      Printf.printf "    (%S, %d, [ %s ]);\n%!" !workload seed
        (String.concat "; "
           (List.map
              (fun (k, v) ->
                if Float.is_integer v then Printf.sprintf "(%S, %.0f.)" k v
                else Printf.sprintf "(%S, %.17g)" k v)
              stats))
  end;
  match expect with
  | Some e when e <> stats ->
    Printf.printf "identity mismatch, %s seed %d:\n  expected %s\n  got      %s\n%!" !workload
      seed (show e) (show stats);
    false
  | _ -> true

(* A seed with no recorded values is still held to the default seed's: one
   gate repetition at the default seed runs before the timed ones. *)
let needs_gate_rep () = !size = Full && Identity.find !workload !seed = None

(* Repeat [f] until [deadline], at least [min] times. *)
let repeat ?(min = 3) ~deadline f =
  let rec go i acc = if i >= min && wall_now () >= deadline then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

(* ---------------------------- app workloads ----------------------------- *)

type app = Lu | Water | Sor

let hosts app = match (app, !size) with Sor, Full -> 128 | Sor, Tiny -> 8 | _, Full -> 8 | _, Tiny -> 4

let lu_params () =
  { Mp_apps.Lu.default_params with n = (if !size = Full then 256 else 64); block = 32; use_prefetch = true }

let water_params () =
  match !size with
  | Full -> { Mp_apps.Water.default_params with molecules = 512; iterations = 5 }
  | Tiny -> { Mp_apps.Water.default_params with molecules = 32; iterations = 1 }

let sor_params () =
  match !size with
  | Full -> { Mp_apps.Sor.default_params with rows = 512; cols = 64; iterations = 10 }
  | Tiny -> { Mp_apps.Sor.default_params with rows = 64; cols = 64; iterations = 2 }

module Apps (D : Mp_dsm.Dsm_intf.S with type t = Dsm.t) = struct
  module L = Mp_apps.Lu.Make (D)
  module W = Mp_apps.Water.Make (D)
  module S = Mp_apps.Sor.Make (D)

  (* allocate, initialize and spawn; returns the verifier *)
  let setup app t =
    match app with
    | Lu ->
      let h = L.setup t (lu_params ()) in
      fun () -> L.verify h
    | Water ->
      let h = W.setup t (water_params ()) in
      fun () -> W.verify h
    | Sor ->
      let h = S.setup t (sor_params ()) in
      fun () -> S.verify h
end

module Plain = Apps (Mp_dsm.Millipage_impl)
module Traced = Apps (Timed.Make (Mp_dsm.Millipage_impl))

(* What a traced repetition measures beyond the timings. *)
type probe = {
  fast : int;
  ns_per_access : float;  (** sampled fast-access time, instrument cost removed *)
  fast_share : float;  (** of this traced run's [Dsm.run] time, spent in fast accesses *)
  conserved : bool;  (** blocked accesses = read + write faults *)
  blocks : int;
  sync_ops : int;
  mallocs : int;
  n_events : int;
  profile_ns_per_event : float;
  hub : float;
}

type rep = {
  create_s : float;
  app_setup_s : float;
  run_s : float;
  verify_s : float;
  verified : bool;
  sim : (string * float) list;
  create_words : float;
  minor_words : float;
  major_collections : int;
  top_heap_words : int;
  views : int;
  probe : probe option;  (** traced repetitions only *)
  spans : Spans.span list;
}

let wall r = r.create_s +. r.app_setup_s +. r.run_s +. r.verify_s

(* Run [f] in a forked child and return its result.  Every repetition then
   starts from the same fresh process, as a user's run does: the kernel
   zero-fills the DSM's memory, the allocator lays it out from scratch, and
   the child's top heap is the repetition's own. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (try Ok (f ()) with e -> Error (Printexc.to_string e)) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v = try Marshal.from_channel ic with End_of_file -> Error "child died" in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Ok v -> v | Error e -> failwith ("repetition failed: " ^ e))

let probe_of ~overhead_ns ~run_s ~sim events =
  let c = Timed.c in
  let prof = Mp_obs.Profile.create () in
  let t0 = now () in
  Spans.with_span "obs.profile_feed" (fun () -> Mp_obs.Profile.feed_all prof events);
  let feed_s = now () -. t0 in
  let n_events = List.length events in
  let blocked = c.accesses - c.fast in
  let faults = int_of_float (List.assoc "millipage.faults" sim) in
  if blocked <> faults then Printf.printf "blocked accesses %d, faults %d\n%!" blocked faults;
  let ns_per_access = ratio (float_of_int c.sampled_ns) (float_of_int c.sampled) -. overhead_ns in
  {
    fast = c.fast;
    ns_per_access;
    fast_share = ratio (float_of_int c.fast *. ns_per_access *. 1e-9) run_s;
    conserved = blocked = faults;
    blocks = c.blocks;
    sync_ops = c.sync_ops;
    mallocs = c.mallocs;
    n_events;
    profile_ns_per_event = ratio (feed_s *. 1e9) (float_of_int n_events);
    hub = hub_ratio (List.map (fun (_, h) -> Mp_obs.Profile.host_msgs h) (Mp_obs.Profile.hosts prof));
  }

(* One run of the app in a fresh child: [Dsm.create], app setup,
   [Dsm.run], verify.  A traced run also counts accesses through {!Timed}
   and feeds every recorder event to a profiler. *)
let app_rep ?overhead_ns app ~seed =
  in_child (fun () ->
      let traced = overhead_ns <> None in
      let g0 = Gc.quick_stat () in
      let t0 = now () in
      let e = Engine.create () in
      let config = Dsm.Config.with_seed Dsm.Config.default seed in
      let w0 = allocated_words () in
      let dsm =
        Spans.with_span "millipage.create" (fun () -> Dsm.create e ~hosts:(hosts app) ~config ())
      in
      let create_words = allocated_words () -. w0 in
      let t1 = now () in
      let events = ref [] in
      if traced then begin
        Timed.observe e;
        let obs = Dsm.obs dsm in
        Mp_obs.Recorder.set_tap obs (Some (fun ev -> events := ev :: !events));
        Mp_obs.Recorder.set_enabled obs true
      end;
      let verify =
        Spans.with_span "apps.setup" (fun () ->
            if traced then Traced.setup app dsm else Plain.setup app dsm)
      in
      let t2 = now () in
      Spans.with_span "millipage.run" (fun () -> Dsm.run dsm);
      let t3 = now () in
      let verified = Spans.with_span "apps.verify" verify in
      let t4 = now () in
      let g1 = Gc.quick_stat () in
      let sim =
        [
          ("sim_time_us", Engine.now e);
          ("net.msgs", float_of_int (Dsm.messages_sent dsm));
          ("net.bytes", float_of_int (Dsm.bytes_sent dsm));
          ("millipage.faults", float_of_int (Dsm.read_faults dsm + Dsm.write_faults dsm));
        ]
      in
      let probe =
        Option.map
          (fun overhead_ns -> probe_of ~overhead_ns ~run_s:(t3 -. t2) ~sim (List.rev !events))
          overhead_ns
      in
      {
        create_s = t1 -. t0;
        app_setup_s = t2 -. t1;
        run_s = t3 -. t2;
        verify_s = t4 -. t3;
        verified;
        sim;
        create_words;
        minor_words = g1.minor_words -. g0.minor_words;
        major_collections = g1.major_collections - g0.major_collections;
        top_heap_words = g1.top_heap_words;
        views = Dsm.views_used dsm;
        probe;
        spans = Spans.recorded ();
      })

(* Verify and gate one repetition; it is one operation.  A traced one must
   also see as many blocked accesses as the DSM counted faults. *)
let account tally ~seed r =
  Spans.adopt r.spans;
  if not r.verified then Printf.printf "verify failed, %s seed %d\n%!" !workload seed;
  tally.attempted <- tally.attempted + 1;
  let conserved = match r.probe with Some p -> p.conserved | None -> true in
  if not (identical ~seed r.sim && r.verified && conserved) then tally.failed <- tally.failed + 1;
  r

let checked_rep ?overhead_ns tally app ~seed = account tally ~seed (app_rep ?overhead_ns app ~seed)

(* the mc layer's metrics, which no app workload exercises *)
let no_mc =
  [
    m "mc.schedule_ms_p50" "ms" 0.0;
    m "mc.schedule_ms_p99" "ms" 0.0;
    m "mc.create_share" "ratio" 0.0;
    m "mc.spec_share" "ratio" 0.0;
    m "mc.explore_overhead_share" "ratio" 0.0;
    m "mc.choice_points_per_schedule" "count" 0.0;
  ]

(* the references [verify] compares against are cached per process: fill
   the caches once, before forking *)
let warm_references = function
  | Lu -> ignore (Mp_apps.Lu.reference (lu_params ()))
  | Water -> ignore (Mp_apps.Water.reference (water_params ()))
  | Sor -> ignore (Mp_apps.Sor.reference (sor_params ()))

let run_app app tally =
  let deadline = wall_now () +. !seconds in
  warm_references app;
  if needs_gate_rep () then ignore (checked_rep tally app ~seed:Identity.default_seed);
  if !trace = 0 then begin
    let reps =
      repeat ~deadline (fun _ ->
          calibrate in_child;
          checked_rep tally app ~seed:!seed)
    in
    calibrate in_child;
    let first = List.hd reps in
    [
      m "setup_s" "s" (ref_s (avg (fun r -> r.create_s +. r.app_setup_s) reps));
      m "run_s" "s" (ref_s (avg (fun r -> r.run_s) reps));
      m "wall_s" "s" (ref_s (avg wall reps));
      m "peak_heap_mb" "MB" (mb_of_words (med (fun r -> float_of_int r.top_heap_words) reps));
      m "sim_time_us" "us" (List.assoc "sim_time_us" first.sim);
      m "schedules_per_s" "1/s" (1.0 /. ref_s (avg wall reps));
      count "states_covered" (List.length (List.sort_uniq compare (List.map (fun r -> r.sim) reps)));
    ]
  end
  else begin
    Spans.enabled := true;
    let overhead_ns = Timed.instrument_overhead_ns () in
    (* untraced and traced repetitions alternate so both see the same
       machine state; the untraced ones give the layer times and the
       baseline of the tracing overhead *)
    let pairs =
      repeat ~min:2 ~deadline (fun i ->
          calibrate in_child;
          Spans.set_run ((2 * i) + 1);
          let plain = Spans.with_span "bench.rep" (fun () -> checked_rep tally app ~seed:!seed) in
          Spans.set_run ((2 * i) + 2);
          let traced =
            Spans.with_span "bench.rep_traced" (fun () -> checked_rep ~overhead_ns tally app ~seed:!seed)
          in
          (plain, traced, Option.get traced.probe))
    in
    calibrate in_child;
    if !trace_out <> "" then Spans.write !trace_out;
    let plains = List.map (fun (p, _, _) -> p) pairs in
    let probes = List.map (fun (_, _, pr) -> pr) pairs in
    let p = List.hd probes and first = List.hd plains in
    let run_s = ref_s (med (fun r -> r.run_s) plains) in
    (* the access share is taken within each traced run, whose clock reads
       slow it down, and applied to the untraced run time *)
    let fast_access_s = med (fun pr -> pr.fast_share) probes *. run_s in
    [
      count "memsim.fast_accesses" p.fast;
      m "memsim.fast_access_s" "s" fast_access_s;
      m "memsim.ns_per_access" "ns" (ref_s (med (fun pr -> pr.ns_per_access) probes));
      m "memsim.heap_mb_per_host" "MB"
        (mb_of_words (med (fun r -> r.create_words) plains) /. float_of_int (hosts app));
      m "millipage.create_s" "s" (ref_s (med (fun r -> r.create_s) plains));
      m "millipage.faults" "count" (List.assoc "millipage.faults" first.sim);
      count "millipage.sync_ops" p.sync_ops;
      count "sim.blocks" p.blocks;
      m "sim.host_us_per_block" "us" (ratio ((run_s -. fast_access_s) *. 1e6) (float_of_int p.blocks));
      m "net.msgs" "count" (List.assoc "net.msgs" first.sim);
      m "net.bytes" "B" (List.assoc "net.bytes" first.sim);
      m "net.hub_ratio" "ratio" p.hub;
      count "multiview.mallocs" p.mallocs;
      count "multiview.views_used" first.views;
      m "apps.setup_s" "s" (ref_s (med (fun r -> r.app_setup_s) plains));
      m "apps.verify_s" "s" (ref_s (med (fun r -> r.verify_s) plains));
      count "obs.events" p.n_events;
      m "obs.profile_ns_per_event" "ns" (ref_s (med (fun pr -> pr.profile_ns_per_event) probes));
      (* tracing leaves [Dsm.create] alone, and its swings would drown the
         difference *)
      m "obs.trace_overhead_s" "s"
        (ref_s
           (med (fun (_, t, _) -> wall t -. t.create_s) pairs
           -. med (fun r -> wall r -. r.create_s) plains));
    ]
    @ no_mc
    @ [
        m "gc.minor_mwords" "Mwords" (med (fun r -> r.minor_words) plains /. 1e6);
        m "gc.major_collections" "count" (med (fun r -> float_of_int r.major_collections) plains);
        m "bench.calibration_ms" "ms" (1e3 *. calibration_s ());
      ]
  end

(* ------------------------------ mc-racer -------------------------------- *)

(* The deep-dive scenario of BENCH_mc.json. *)
let deep_dive =
  "app=racer locs=4 ops=10 wseed=7 hosts=4 homes=rr drop=0.03 dup=0.02 reorder=0.05 jitter=4 \
   refine=1 seed=1 netseed=9 quantum=2 maxdelay=3"

(* 400, the deep dive's own budget, spread the walk time further across
   seeds (0.17 against 0.10): whether a schedule's 64 MB of DSM reuses
   freed memory or faults in fresh pages follows the GC's timing, which
   each seed's schedules shift *)
let walk_budget () = match !size with Full -> 100 | Tiny -> 3
let prob = 0.05

(* [Explore.random_walk] seeds run i with [seed + i]; spacing the benchmark
   seeds by more than the budget keeps their walks disjoint *)
let walk_seed seed = seed * 1000

(* the DSM configuration [Scenario.run] builds for a scenario *)
let scenario_config (s : Scenario.t) =
  let c = { Dsm.Config.default with seed = s.seed; homes = s.homes; consistency = s.consistency } in
  Dsm.Config.with_net_seed (Dsm.Config.with_faults c s.faults) s.net_seed

(* One setup: build the scenario and the 4-host DSM every schedule rebuilds.
   Returns (scenario, setup s, create s, words allocated by create).  The
   samples run back to back, as the schedules of a walk do: no collection
   in between, so freed pages are reused as in the walk. *)
let mc_setup () =
  let t0 = now () in
  let s = Scenario.of_string deep_dive in
  let e = Engine.create () in
  let w0 = allocated_words () in
  let t1 = now () in
  let dsm = Dsm.create e ~hosts:s.hosts ~config:(scenario_config s) () in
  let t2 = now () in
  let words = allocated_words () -. w0 in
  ignore (Sys.opaque_identity dsm);
  (s, t2 -. t0, t2 -. t1, words)

(* The schedules [Explore.random_walk] runs, one by one: index 0 is the
   default schedule, index i the random schedule seeded [walk_seed seed + i]. *)
type walk = {
  mutable times : float list;  (** CPU s per schedule *)
  states : (int, unit) Hashtbl.t;
  traces : (int, unit) Hashtbl.t;
  mutable end_us : float list;  (** simulated completion time per schedule *)
  mutable cps : int;
  mutable events : int;
  mutable violating : int;
  host_msgs : int array;  (** per host, summed over schedules, when profiled *)
  host_bytes : int array;
}

let note w (o : Scenario.outcome) dt =
  w.times <- dt :: w.times;
  Hashtbl.replace w.states o.state_sig ();
  Hashtbl.replace w.traces o.trace_sig ();
  w.end_us <- o.end_us :: w.end_us;
  w.cps <- w.cps + o.choice_points;
  w.events <- w.events + o.obs_events;
  if o.violations <> [] then begin
    w.violating <- w.violating + 1;
    Printf.printf "violation: %s\n%!" (String.concat "; " o.violations)
  end;
  Option.iter
    (fun p ->
      List.iter
        (fun (h, c) ->
          w.host_msgs.(h) <- w.host_msgs.(h) + Mp_obs.Profile.host_msgs c;
          w.host_bytes.(h) <- w.host_bytes.(h) + Mp_obs.Profile.host_bytes c)
        (Mp_obs.Profile.hosts p))
    o.profile

(* One walk per variant (scenario, profiled), run schedule by schedule in
   lockstep so that every variant sees the same machine state. *)
let walks ~seed variants =
  let fresh (s, _) =
    {
      times = [];
      states = Hashtbl.create 64;
      traces = Hashtbl.create 64;
      end_us = [];
      cps = 0;
      events = 0;
      violating = 0;
      host_msgs = Array.make s.Scenario.hosts 0;
      host_bytes = Array.make s.Scenario.hosts 0;
    }
  in
  let ws = List.map fresh variants in
  for i = 0 to walk_budget () - 1 do
    List.iter2
      (fun (s, profile) w ->
        let t0 = now () in
        let o =
          Spans.with_span "mc.schedule" (fun () ->
              if i = 0 then Scenario.run_plan ~profile s Mp_mc.Plan.empty
              else Scenario.run_random ~profile s ~seed:(walk_seed seed + i) ~prob)
        in
        note w o (now () -. t0))
      variants ws
  done;
  ws

let states w = Hashtbl.length w.states
let traces w = Hashtbl.length w.traces

(* The seed's deterministic outcome, checked by the identity gate; every
   schedule is an operation and a violating one fails. *)
let checked_walk tally s ~seed =
  let w = List.hd (walks ~seed [ (s, false) ]) in
  let stats =
    [
      ("states_covered", float_of_int (states w));
      ("mc.distinct_traces", float_of_int (traces w));
      ("sim_time_us", mean w.end_us);
    ]
  in
  tally.attempted <- tally.attempted + List.length w.times;
  tally.failed <- tally.failed + w.violating + if identical ~seed stats then 0 else 1;
  w

(* One timed [Explore.random_walk], cross-checked against the seed's
   schedule-by-schedule walk. *)
type explored = { walk_s : float; schedules : float; minor_words : float; majors : int }

let explore tally s ~seed (w : walk) =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r =
    Spans.with_span "mc.random_walk" (fun () ->
        Explore.random_walk ~prob s ~seed:(walk_seed seed)
          (Explore.budget ~max_schedules:(walk_budget ()) ~max_wall_s:600.0 ()))
  in
  let walk_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let agrees = r.failure = None && r.distinct_states = states w && r.distinct_traces = traces w in
  if not agrees then
    Printf.printf "random_walk disagrees with the schedule walk: %d states, %d traces, failure %b\n%!"
      r.distinct_states r.distinct_traces (r.failure <> None);
  tally.attempted <- tally.attempted + r.schedules;
  if not agrees then tally.failed <- tally.failed + 1;
  {
    walk_s;
    schedules = float_of_int r.schedules;
    minor_words = g1.minor_words -. g0.minor_words;
    majors = g1.major_collections - g0.major_collections;
  }

(* What one traced mc-racer repetition measured. *)
type mc_rep = {
  setups : (Scenario.t * float * float * float) list;
  explored : explored;
  plain : walk;  (** the schedules one by one *)
  unrefined : walk;  (** the same, with the refinement spec off *)
  profiled : walk;  (** the same, with a profiler on the recorder *)
}

let run_mc tally =
  let deadline = wall_now () +. !seconds in
  let s, _, _, _ = mc_setup () in
  if needs_gate_rep () then ignore (checked_walk tally s ~seed:Identity.default_seed);
  let w = checked_walk tally s ~seed:!seed in
  (* the walks' own top heap, before the calibration loop adds its records *)
  let top_heap_words = (Gc.quick_stat ()).top_heap_words in
  (* in this process, then a full collection, so that the walk after it does
     not also collect the loop's garbage *)
  let calibrate () =
    calibrate (fun f -> f ());
    Gc.full_major ()
  in
  let setups () = List.init 5 (fun _ -> mc_setup ()) in
  if !trace = 0 then begin
    let reps =
      repeat ~deadline (fun _ ->
          calibrate ();
          let setup_s = med (fun (_, t, _, _) -> t) (setups ()) in
          (setup_s, explore tally s ~seed:!seed w))
    in
    calibrate ();
    [
      m "setup_s" "s" (ref_s (avg fst reps));
      m "run_s" "s" (ref_s (avg (fun (_, x) -> x.walk_s) reps));
      m "wall_s" "s" (ref_s (avg (fun (t, x) -> t +. x.walk_s) reps));
      m "peak_heap_mb" "MB" (mb_of_words (float_of_int top_heap_words));
      m "sim_time_us" "us" (mean w.end_us);
      m "schedules_per_s" "1/s"
        (avg (fun (_, x) -> x.schedules) reps /. ref_s (avg (fun (_, x) -> x.walk_s) reps));
      count "states_covered" (states w);
    ]
  end
  else begin
    Spans.enabled := true;
    let variants = [ (s, false); ({ s with refine = false }, false); (s, true) ] in
    let reps =
      repeat ~min:1 ~deadline (fun i ->
          calibrate ();
          Spans.set_run (i + 1);
          let setups = setups () in
          let explored = explore tally s ~seed:!seed w in
          match Spans.with_span "bench.walks" (fun () -> walks ~seed:!seed variants) with
          | [ plain; unrefined; profiled ] -> { setups; explored; plain; unrefined; profiled }
          | _ -> assert false)
    in
    calibrate ();
    if !trace_out <> "" then Spans.write !trace_out;
    let all_setups = List.concat_map (fun r -> r.setups) reps in
    let create_s = ref_s (med (fun (_, _, c, _) -> c) all_setups) in
    let walk_s = ref_s (med (fun r -> r.explored.walk_s) reps) in
    let plain_s = ref_s (med (fun r -> sum r.plain.times) reps) in
    let profile_s = ref_s (med (fun r -> sum r.profiled.times -. sum r.plain.times) reps) in
    let schedule_times = List.concat_map (fun r -> r.plain.times) reps in
    let last = List.hd reps in
    let schedules = float_of_int (List.length last.plain.times) in
    let total a = float_of_int (Array.fold_left ( + ) 0 a) in
    (* the memsim, sim, multiview and apps probes need the engine and DSM
       that [Scenario.run] builds inside the library *)
    [
      m "memsim.fast_accesses" "count" 0.0;
      m "memsim.fast_access_s" "s" 0.0;
      m "memsim.ns_per_access" "ns" 0.0;
      m "memsim.heap_mb_per_host" "MB"
        (mb_of_words (med (fun (_, _, _, w) -> w) all_setups) /. float_of_int s.hosts);
      m "millipage.create_s" "s" create_s;
      m "millipage.faults" "count" 0.0;
      m "millipage.sync_ops" "count" 0.0;
      m "sim.blocks" "count" 0.0;
      m "sim.host_us_per_block" "us" 0.0;
      m "net.msgs" "count" (total last.profiled.host_msgs);
      m "net.bytes" "B" (total last.profiled.host_bytes);
      m "net.hub_ratio" "ratio" (hub_ratio (Array.to_list last.profiled.host_msgs));
      m "multiview.mallocs" "count" 0.0;
      m "multiview.views_used" "count" 0.0;
      m "apps.setup_s" "s" 0.0;
      m "apps.verify_s" "s" 0.0;
      count "obs.events" last.plain.events;
      m "obs.profile_ns_per_event" "ns" (ratio (profile_s *. 1e9) (float_of_int last.plain.events));
      m "obs.trace_overhead_s" "s" profile_s;
      m "mc.schedule_ms_p50" "ms" (1e3 *. ref_s (percentile 50.0 schedule_times));
      m "mc.schedule_ms_p99" "ms" (1e3 *. ref_s (percentile 99.0 schedule_times));
      m "mc.create_share" "ratio" (ratio (create_s *. schedules) walk_s);
      m "mc.spec_share" "ratio"
        (ratio (plain_s -. ref_s (med (fun r -> sum r.unrefined.times) reps)) plain_s);
      m "mc.explore_overhead_share" "ratio" (ratio (walk_s -. plain_s) walk_s);
      m "mc.choice_points_per_schedule" "count" (ratio (float_of_int last.plain.cps) schedules);
      m "gc.minor_mwords" "Mwords" (med (fun r -> r.explored.minor_words) reps /. 1e6);
      m "gc.major_collections" "count" (med (fun r -> float_of_int r.explored.majors) reps);
      m "bench.calibration_ms" "ms" (1e3 *. calibration_s ());
    ]
  end

(* --------------------------------- main --------------------------------- *)

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let tally = { attempted = 0; failed = 0 } in
  let metrics =
    match !workload with
    | "lu-access" -> run_app Lu tally
    | "water-protocol" -> run_app Water tally
    | "sor-wide" -> run_app Sor tally
    | "mc-racer" -> run_mc tally
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  print_stamp ();
  print_result tally metrics;
  if tally.failed > 0 then exit 1
