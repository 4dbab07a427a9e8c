(** Wall-clock microbenchmarks of the simulator's own primitives (Bechamel).

    One test per substrate that the paper-reproduction benches lean on; these
    measure the cost of the *simulation*, not simulated time. *)

open Bechamel
open Toolkit

let test_prng =
  let rng = Mp_util.Prng.create ~seed:1 in
  Test.make ~name:"prng bits64" (Staged.stage (fun () -> ignore (Mp_util.Prng.bits64 rng)))

let test_cache =
  let c =
    Mp_memsim.Cache.create ~size_bytes:(512 * 1024) ~line_bytes:32 ~assoc:4
  in
  let i = ref 0 in
  Test.make ~name:"cache access"
    (Staged.stage (fun () ->
         i := (!i + 4096) land 0xFFFFF;
         ignore (Mp_memsim.Cache.access c !i)))

let test_tlb =
  let t = Mp_memsim.Tlb.create ~entries:64 in
  let i = ref 0 in
  Test.make ~name:"tlb access"
    (Staged.stage (fun () ->
         i := (!i + 1) land 0xFF;
         ignore (Mp_memsim.Tlb.access t !i)))

let test_mpt =
  let mpt = Mp_multiview.Mpt.create () in
  for k = 0 to 999 do
    Mp_multiview.Mpt.add mpt
      (Mp_multiview.Minipage.make ~id:k ~view:0 ~offset:(k * 256) ~length:256)
  done;
  let i = ref 0 in
  Test.make ~name:"mpt lookup (1000 entries)"
    (Staged.stage (fun () ->
         i := (!i + 777) mod 256000;
         ignore (Mp_multiview.Mpt.find mpt !i)))

let test_diff =
  let twin = Bytes.make 4096 'a' in
  let current = Bytes.copy twin in
  Bytes.fill current 100 64 'b';
  Bytes.fill current 2000 128 'c';
  Test.make ~name:"run-length diff of 4KB page"
    (Staged.stage (fun () -> ignore (Mp_millipage.Twin_diff.diff ~twin ~current)))

let test_vm_read =
  let obj = Mp_memsim.Memobject.create ~size:(64 * 1024) () in
  let vm = Mp_memsim.Vm.create ~counters:(Mp_util.Stats.Counters.create ()) obj in
  let v = Mp_memsim.Vm.map_view vm Mp_memsim.Prot.Read_write in
  let base = Mp_memsim.Vm.view_base vm v in
  let i = ref 0 in
  Test.make ~name:"vm protected read (hit)"
    (Staged.stage (fun () ->
         i := (!i + 8) land 0xFFF8;
         ignore (Mp_memsim.Vm.read_f64 vm (base + !i))))

let test_engine =
  Test.make ~name:"engine spawn+delay+run"
    (Staged.stage (fun () ->
         let e = Mp_sim.Engine.create () in
         Mp_sim.Engine.spawn e (fun () -> Mp_sim.Engine.delay 1.0);
         Mp_sim.Engine.run e))

let tests =
  [ test_prng; test_cache; test_tlb; test_mpt; test_diff; test_vm_read; test_engine ]

let run () =
  Harness.section "Simulator primitive costs (wall clock, Bechamel OLS ns/run)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) () in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%.1f ns/run" x
            | Some [] | None -> "n/a"
          in
          Printf.printf "  %-32s %s\n%!" name est)
        analyzed)
    tests
