(** Table 1: cost of basic operations in Millipage. *)

open Mp_sim
open Mp_memsim
open Mp_millipage

(* Measure the access-fault cost: time from a faulting access to handler
   completion, with a handler that fixes protection and charges nothing
   itself. *)
let measured_fault_us () =
  let e = Engine.create () in
  let obj = Memobject.create ~size:4096 () in
  let vm = Vm.create ~counters:(Mp_util.Stats.Counters.create ()) obj in
  let v = Vm.map_view vm Prot.No_access in
  let cost = Cost_model.default in
  Vm.set_fault_handler vm (fun f ->
      Engine.delay cost.fault_us;
      Vm.protect vm ~view:f.view ~vpage:f.vpage Prot.Read_write);
  let out = ref nan in
  Engine.spawn e (fun () ->
      let t0 = Engine.now e in
      ignore (Vm.read_u8 vm (Vm.view_base vm v));
      out := Engine.now e -. t0);
  Engine.run e;
  !out

let run () =
  Harness.section "Table 1: cost of basic operations (us)";
  let c = Cost_model.default in
  let msg bytes = Mp_net.Fabric.default_latency ~bytes in
  let rows =
    [
      ("access fault", 26.0, measured_fault_us ());
      ("get protection", 7.0, c.get_prot_us);
      ("set protection", 12.0, c.set_prot_us);
      ("header message send/recv (32 bytes)", 12.0, msg 32);
      ("data message send/recv (0.5 KB)", 22.0, msg 512);
      ("data message send/recv (1 KB)", 34.0, msg 1024);
      ("data message send/recv (4 KB)", 90.0, msg 4096);
      ("minipage translation (MPT lookup)", 7.0, c.mpt_lookup_us);
    ]
  in
  Mp_util.Tab.print
    ~header:[ "operation"; "paper us"; "ours us"; "dev" ]
    (List.map
       (fun (op, paper, ours) ->
         [ op; Mp_util.Tab.fu paper; Mp_util.Tab.fu ours; Harness.dev ~paper ~ours ])
       rows)
