(* The MultiView mechanism itself (Figures 1 and 2 of the paper), without
   the DSM on top: one memory object, several views, independent protection
   per view, and the always-writable privileged view used by server threads.

     dune exec examples/views_demo.exe
*)

open Mp_memsim

let show vm label views =
  Printf.printf "%-24s" label;
  List.iter
    (fun v ->
      Printf.printf "  view%d=%s" v (Prot.to_string (Vm.protection vm ~view:v ~vpage:0)))
    views;
  print_newline ()

let () =
  (* a one-page memory object holding three variables *)
  let obj = Memobject.create ~size:4096 () in
  let vm = Vm.create ~counters:(Mp_util.Stats.Counters.create ()) obj in
  let v1 = Vm.map_view vm Prot.No_access in
  let v2 = Vm.map_view vm Prot.No_access in
  let v3 = Vm.map_view vm Prot.No_access in
  let priv = Vm.map_privileged_view vm in
  Printf.printf "three views of one page at bases %d / %d / %d (priv at %d)\n\n"
    (Vm.view_base vm v1) (Vm.view_base vm v2) (Vm.view_base vm v3)
    (Vm.view_base vm priv);

  (* x lives at offset 0 (accessed via view 1), y at 1024 (view 2),
     z at 2048 (view 3) *)
  let x = Vm.address vm ~view:v1 0 in
  let y = Vm.address vm ~view:v2 1024 in
  show vm "initial:" [ v1; v2; v3 ];

  (* independent protection changes on the same physical page *)
  Vm.protect vm ~view:v1 ~vpage:0 Prot.Read_write;
  Vm.protect vm ~view:v2 ~vpage:0 Prot.Read_only;
  show vm "x writable, y readable:" [ v1; v2; v3 ];

  Vm.write_f64 vm x 42.0;
  Printf.printf "\nwrote x=42 through view1\n";

  (* a DSM server thread updates y through the privileged view while the
     application views stay blocked *)
  let fresh = Bytes.create 8 in
  Bytes.set_int64_le fresh 0 (Int64.bits_of_float 7.0);
  Vm.priv_write_bytes vm ~off:1024 fresh;
  Printf.printf "server updated y=%.1f via the privileged view\n" (Vm.read_f64 vm y);

  (* an access through a view whose protection forbids it faults, like a
     hardware page fault delivered to the DSM *)
  (try ignore (Vm.read_f64 vm (Vm.address vm ~view:v3 2048))
   with Vm.Access_violation f ->
     Printf.printf "reading z via view3 faulted (view %d, vpage %d) as expected\n" f.view
       f.vpage);

  (* all views alias the same physical bytes *)
  Vm.protect vm ~view:v2 ~vpage:0 Prot.Read_write;
  Vm.write_f64 vm (Vm.address vm ~view:v2 0) 1000.0;
  Printf.printf "after writing offset 0 via view2, x read via view1 = %.1f\n"
    (Vm.read_f64 vm x)
