open Mp_memsim

let check_prot = Alcotest.testable (fun ppf p -> Format.pp_print_string ppf (Prot.to_string p)) ( = )

let test_prot_allows () =
  Alcotest.(check bool) "rw read" true (Prot.allows Read_write Read);
  Alcotest.(check bool) "rw write" true (Prot.allows Read_write Write);
  Alcotest.(check bool) "ro read" true (Prot.allows Read_only Read);
  Alcotest.(check bool) "ro write" false (Prot.allows Read_only Write);
  Alcotest.(check bool) "na read" false (Prot.allows No_access Read);
  Alcotest.(check bool) "na write" false (Prot.allows No_access Write)

let test_phys_mem_typed_roundtrip () =
  let m = Phys_mem.create 64 in
  Phys_mem.set_u8 m 0 0xAB;
  Alcotest.(check int) "u8" 0xAB (Phys_mem.get_u8 m 0);
  Phys_mem.set_i32 m 4 0xDEADBEEFl;
  Alcotest.(check int32) "i32" 0xDEADBEEFl (Phys_mem.get_i32 m 4);
  Phys_mem.set_f64 m 16 3.14159;
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Phys_mem.get_f64 m 16);
  Phys_mem.set_int m 24 (-42);
  Alcotest.(check int) "int" (-42) (Phys_mem.get_int m 24)

let test_phys_mem_bounds () =
  let m = Phys_mem.create 8 in
  Alcotest.(check bool) "oob raises" true
    (try
       ignore (Phys_mem.get_int m 1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check string) "bounds message"
    "Phys_mem: access [8190, 8198) outside region of 8192 bytes"
    (try
       ignore (Phys_mem.get_int (Phys_mem.create 8192) 8190);
       ""
     with Invalid_argument msg -> msg)

let test_memobject_rounding () =
  let o = Memobject.create ~size:5000 () in
  Alcotest.(check int) "pages" 2 (Memobject.pages o);
  Alcotest.(check int) "size" 8192 (Memobject.size o)

let vm_size = 4 * 4096

let mk_vm ?(size = vm_size) ?(counters = Mp_util.Stats.Counters.create ()) () =
  let o = Memobject.create ~size () in
  Vm.create ~counters o

let test_views_disjoint_bases () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  let b0 = Vm.view_base vm v0 and b1 = Vm.view_base vm v1 in
  Alcotest.(check bool) "disjoint" true (abs (b1 - b0) >= vm_size)

let test_views_alias_same_memory () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  Vm.write_i32 vm (Vm.address vm ~view:v0 100) 7777l;
  Alcotest.(check int32) "aliased" 7777l (Vm.read_i32 vm (Vm.address vm ~view:v1 100))

let test_translate_roundtrip () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  let addr = Vm.address vm ~view:v1 5000 in
  let view, vpage, phys_off = Vm.translate vm addr in
  Alcotest.(check int) "view" v1 view;
  Alcotest.(check int) "vpage" 1 vpage;
  Alcotest.(check int) "off" 5000 phys_off;
  ignore v0

let test_bad_address () =
  let vm = mk_vm () in
  let _ = Vm.map_view vm Prot.Read_write in
  Alcotest.(check bool) "below first view" true
    (try
       ignore (Vm.translate vm 0);
       false
     with Vm.Bad_address _ -> true);
  (* the guard gap between view end and next stride *)
  let guard = Vm.view_base vm 0 + vm_size in
  Alcotest.(check bool) "guard page" true
    (try
       ignore (Vm.read_u8 vm guard);
       false
     with Vm.Bad_address _ -> true)

let test_independent_protection () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  let v1 = Vm.map_view vm Prot.Read_write in
  Vm.protect vm ~view:v0 ~vpage:0 Prot.No_access;
  (* v1 still accessible on the same physical page *)
  Vm.write_u8 vm (Vm.address vm ~view:v1 10) 5;
  Alcotest.(check int) "via v1" 5 (Vm.read_u8 vm (Vm.address vm ~view:v1 10));
  (* v0 faults *)
  Alcotest.(check bool) "v0 faults" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 10));
       false
     with Vm.Access_violation f -> f.view = v0 && f.vpage = 0)

let test_fault_handler_fixes_access () =
  let counters = Mp_util.Stats.Counters.create () in
  let vm = mk_vm ~counters () in
  let v0 = Vm.map_view vm Prot.No_access in
  let faults = ref [] in
  Vm.set_fault_handler vm (fun f ->
      faults := (f.view, f.vpage, f.access) :: !faults;
      Vm.protect vm ~view:f.view ~vpage:f.vpage
        (match f.access with Prot.Read -> Prot.Read_only | Prot.Write -> Prot.Read_write));
  let addr = Vm.address vm ~view:v0 0 in
  Alcotest.(check int) "read ok after handler" 0 (Vm.read_u8 vm addr);
  Alcotest.(check int) "one read fault" 1 (List.length !faults);
  Vm.write_u8 vm addr 9;
  Alcotest.(check int) "write fault too" 2 (List.length !faults);
  (match !faults with
  | (_, _, Prot.Write) :: (_, _, Prot.Read) :: [] -> ()
  | _ -> Alcotest.fail "unexpected fault sequence");
  let get = Mp_util.Stats.Counters.get counters in
  Alcotest.(check int) "counter read" 1 (get "fault.read");
  Alcotest.(check int) "counter write" 1 (get "fault.write");
  (* a second address space over the same table adds into the same counts *)
  let vm2 = mk_vm ~counters () in
  let v = Vm.map_view vm2 Prot.No_access in
  Vm.set_fault_handler vm2 (fun f ->
      Vm.protect vm2 ~view:f.view ~vpage:f.vpage Prot.Read_only);
  ignore (Vm.read_u8 vm2 (Vm.address vm2 ~view:v 0));
  Alcotest.(check int) "read faults summed" 2 (get "fault.read");
  Alcotest.(check int) "write faults unchanged" 1 (get "fault.write")

let test_fault_storm () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  Vm.set_fault_handler vm (fun _ -> ());
  Alcotest.(check bool) "storm" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 0));
       false
     with Vm.Fault_storm _ -> true)

let test_access_spanning_vpages () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.Read_write in
  Vm.protect vm ~view:v0 ~vpage:1 Prot.No_access;
  (* an 8-byte read straddling pages 0-1 must fault on page 1 *)
  let addr = Vm.address vm ~view:v0 (4096 - 4) in
  Alcotest.(check bool) "straddle faults" true
    (try
       ignore (Vm.read_int vm addr);
       false
     with Vm.Access_violation f -> f.vpage = 1)

let test_privileged_view_fixed () =
  let vm = mk_vm () in
  let pv = Vm.map_privileged_view vm in
  Alcotest.(check check_prot) "rw" Prot.Read_write (Vm.protection vm ~view:pv ~vpage:0);
  Alcotest.(check bool) "protect rejected" true
    (try
       Vm.protect vm ~view:pv ~vpage:0 Prot.No_access;
       false
     with Invalid_argument _ -> true)

let test_privileged_access_bypasses_protection () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  let _pv = Vm.map_privileged_view vm in
  (* server thread updates memory while the application view is blocked *)
  Vm.priv_write_bytes vm ~off:100 (Bytes.of_string "abc");
  Alcotest.(check string) "priv read" "abc"
    (Bytes.to_string (Vm.priv_read_bytes vm ~off:100 ~len:3));
  (* application still cannot see it *)
  Alcotest.(check bool) "app still blocked" true
    (try
       ignore (Vm.read_u8 vm (Vm.address vm ~view:v0 100));
       false
     with Vm.Access_violation _ -> true)

let test_protect_range () =
  let vm = mk_vm () in
  let v0 = Vm.map_view vm Prot.No_access in
  Vm.protect_range vm ~view:v0 ~phys_off:4000 ~len:200 Prot.Read_only;
  Alcotest.(check check_prot) "page0" Prot.Read_only (Vm.protection vm ~view:v0 ~vpage:0);
  Alcotest.(check check_prot) "page1" Prot.Read_only (Vm.protection vm ~view:v0 ~vpage:1);
  Alcotest.(check check_prot) "page2 untouched" Prot.No_access (Vm.protection vm ~view:v0 ~vpage:2)

let suite_cache () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  Alcotest.(check bool) "first access misses" false (Cache.access c 0);
  Alcotest.(check bool) "second hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 31);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c)

let test_cache_lru_eviction () =
  (* 2-way, 16 sets of 32B lines: addresses 0, 1024, 2048 map to set 0 *)
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 1024);
  ignore (Cache.access c 0);
  (* inserting a third line in set 0 evicts LRU = 1024 *)
  ignore (Cache.access c 2048);
  Alcotest.(check bool) "0 still resident" true (Cache.probe c 0);
  Alcotest.(check bool) "1024 evicted" false (Cache.probe c 1024);
  Alcotest.(check bool) "2048 resident" true (Cache.probe c 2048)

let test_cache_capacity () =
  let c = Cache.create ~size_bytes:1024 ~line_bytes:32 ~assoc:2 in
  (* fill the whole cache, touch again: all hits *)
  for i = 0 to 31 do
    ignore (Cache.access c (i * 32))
  done;
  let h0 = Cache.hits c in
  for i = 0 to 31 do
    ignore (Cache.access c (i * 32))
  done;
  Alcotest.(check int) "all hit" (h0 + 32) (Cache.hits c)

let test_tlb_lru () =
  let tlb = Tlb.create ~entries:2 in
  Alcotest.(check bool) "miss" false (Tlb.access tlb 1);
  Alcotest.(check bool) "miss" false (Tlb.access tlb 2);
  Alcotest.(check bool) "hit" true (Tlb.access tlb 1);
  (* inserting 3 evicts LRU = 2 *)
  Alcotest.(check bool) "miss" false (Tlb.access tlb 3);
  Alcotest.(check bool) "2 evicted" false (Tlb.access tlb 2)

let test_mmu_pte_surcharge_gating () =
  let mmu = Mmu.create () in
  (* touch few vpages: walks are cheap (no OS surcharge) *)
  let c1 = Mmu.touch_vpage mmu ~vpn:0 in
  Alcotest.(check bool) "cold walk below budget" true (c1 < 100.0)

let test_overhead_model_breaking_point () =
  let mb = 1024 * 1024 in
  let baseline = Overhead_model.run ~array_bytes:(2 * mb) ~views:1 () in
  let below = Overhead_model.run ~array_bytes:(2 * mb) ~views:32 () in
  let above = Overhead_model.run ~array_bytes:(2 * mb) ~views:512 () in
  let s_below = Overhead_model.slowdown ~baseline below in
  let s_above = Overhead_model.slowdown ~baseline above in
  Alcotest.(check bool) "small overhead below break (n=32)" true (s_below < 1.05);
  Alcotest.(check bool) "substantial above break" true (s_above > 5.0)

let test_overhead_model_same_slope () =
  let mb = 1024 * 1024 in
  let slope n_mb views_over =
    let array_bytes = n_mb * mb in
    let break = 512 / n_mb in
    let baseline = Overhead_model.run ~array_bytes ~views:1 () in
    let r = Overhead_model.run ~array_bytes ~views:(break * views_over) () in
    (Overhead_model.slowdown ~baseline r -. 1.0) /. float_of_int ((break * views_over) - break)
  in
  let s2 = slope 2 2 and s4 = slope 4 2 in
  Alcotest.(check bool) "same slope across N" true (Float.abs (s2 -. s4) /. s2 < 0.2)

let test_view_major_order_blunts_break () =
  let mb = 1024 * 1024 in
  let array_bytes = 2 * mb in
  let baseline = Overhead_model.run ~array_bytes ~views:1 () in
  let inter = Overhead_model.run ~array_bytes ~views:512 () in
  let major = Overhead_model.run ~order:`View_major ~array_bytes ~views:512 () in
  let s_inter = Overhead_model.slowdown ~baseline inter in
  let s_major = Overhead_model.slowdown ~baseline major in
  Alcotest.(check bool)
    (Printf.sprintf "view-major (%.1f) well below interleaved (%.1f)" s_major s_inter)
    true
    (s_major *. 2.0 < s_inter)

let test_unused_allocation_moves_break_earlier () =
  (* §4.1 observation 4: allocate 4 MB, touch 1 MB — the breaking point
     appears earlier than when only the accessed fraction is allocated *)
  let mb = 1024 * 1024 in
  let baseline = Overhead_model.run ~array_bytes:mb ~views:256 () in
  let overalloc =
    Overhead_model.run ~array_bytes:mb ~allocated_bytes:(4 * mb) ~views:256 ()
  in
  (* 256 views x 1MB touched = below the break; with 4 MB committed the PTE
     set is 4x bigger and the surcharge kicks in *)
  Alcotest.(check bool)
    (Printf.sprintf "overallocated (%.0f us) slower than exact (%.0f us)"
       overalloc.Overhead_model.us_per_iter baseline.Overhead_model.us_per_iter)
    true
    (overalloc.Overhead_model.us_per_iter > 1.5 *. baseline.Overhead_model.us_per_iter)

let test_max_views_va_limit () =
  let n = Overhead_model.max_views_for ~array_bytes:(16 * 1024 * 1024) () in
  Alcotest.(check bool) "~104 views for 16MB" true (n >= 90 && n <= 110)

(* The reference model for [Phys_mem]: the flat zero-filled byte array it
   was before it became sparse. *)
module Flat = struct
  let create size = Bytes.make size '\000'

  let check t off len =
    if off < 0 || len < 0 || off + len > Bytes.length t then invalid_arg "Flat"
end

type mem_op =
  | Set of int * int * int * int64  (* region, width (0..3), offset, value *)
  | Get of int * int * int
  | Write of int * int * string
  | Read of int * int * int

(* three chunks and a ragged tail, so accesses straddle chunk boundaries and
   the end of the region *)
let region_size = (3 * 4096) + 100
let widths = [| 1; 4; 8; 8 |]  (* u8, i32, f64, int *)

let pp_mem_op = function
  | Set (r, w, o, v) -> Printf.sprintf "Set(r%d,w%d,%d,%Ld)" r w o v
  | Get (r, w, o) -> Printf.sprintf "Get(r%d,w%d,%d)" r w o
  | Write (r, o, s) -> Printf.sprintf "Write(r%d,%d,len %d)" r o (String.length s)
  | Read (r, o, l) -> Printf.sprintf "Read(r%d,%d,%d)" r o l

let gen_mem_op =
  let open QCheck.Gen in
  (* offsets cluster at chunk boundaries half the time; a few run past the
     end, to check that both sides reject the same accesses *)
  let off =
    oneof
      [
        int_bound (region_size + 8);
        map2 (fun k d -> max 0 ((k * 4096) + d)) (int_range 1 3) (int_range (-9) 9);
      ]
  in
  let len = oneof [ int_bound 16; int_bound 9000 ] in
  let region = int_bound 1 in
  frequency
    [
      (4, map4 (fun r w o v -> Set (r, w, o, v)) region (int_bound 3) off ui64);
      (2, map3 (fun r w o -> Get (r, w, o)) region (int_bound 3) off);
      (1, map3 (fun r o s -> Write (r, o, s)) region off (string_size ~gen:printable len));
      (1, map3 (fun r o l -> Read (r, o, l)) region off len);
    ]

(* Apply [op] to both models; true when they agree on the result, on
   whether the access was rejected, and on the contents of both regions. *)
let step sparse flat op =
  let rejected f = try Ok (f ()) with Invalid_argument _ -> Error () in
  let same f g = rejected f = rejected g in
  let agree =
    match op with
    | Set (r, w, o, v) ->
      same
        (fun () ->
          let m = sparse.(r) in
          match w with
          | 0 -> Phys_mem.set_u8 m o (Int64.to_int v)
          | 1 -> Phys_mem.set_i32 m o (Int64.to_int32 v)
          | 2 -> Phys_mem.set_f64 m o (Int64.float_of_bits v)
          | _ -> Phys_mem.set_int m o (Int64.to_int v))
        (fun () ->
          let m = flat.(r) in
          Flat.check m o widths.(w);
          match w with
          | 0 -> Bytes.set m o (Char.chr (Int64.to_int v land 0xFF))
          | 1 -> Bytes.set_int32_le m o (Int64.to_int32 v)
          | 2 -> Bytes.set_int64_le m o v
          | _ -> Bytes.set_int64_le m o (Int64.of_int (Int64.to_int v)))
    | Get (r, w, o) ->
      same
        (fun () ->
          let m = sparse.(r) in
          match w with
          | 0 -> Int64.of_int (Phys_mem.get_u8 m o)
          | 1 -> Int64.of_int32 (Phys_mem.get_i32 m o)
          | 2 -> Int64.bits_of_float (Phys_mem.get_f64 m o)
          | _ -> Int64.of_int (Phys_mem.get_int m o))
        (fun () ->
          let m = flat.(r) in
          Flat.check m o widths.(w);
          match w with
          | 0 -> Int64.of_int (Char.code (Bytes.get m o))
          | 1 -> Int64.of_int32 (Bytes.get_int32_le m o)
          | 2 -> Bytes.get_int64_le m o
          | _ -> Int64.of_int (Int64.to_int (Bytes.get_int64_le m o)))
    | Write (r, o, str) ->
      let b = Bytes.of_string str in
      same
        (fun () -> Phys_mem.write_bytes sparse.(r) ~off:o b)
        (fun () ->
          Flat.check flat.(r) o (Bytes.length b);
          Bytes.blit b 0 flat.(r) o (Bytes.length b))
    | Read (r, o, l) ->
      same
        (fun () -> Phys_mem.read_bytes sparse.(r) ~off:o ~len:l)
        (fun () ->
          Flat.check flat.(r) o l;
          Bytes.sub flat.(r) o l)
  in
  agree
  && Array.for_all2
       (fun m b -> Bytes.equal (Phys_mem.read_bytes m ~off:0 ~len:region_size) b)
       sparse flat

let qcheck_sparse_matches_flat =
  QCheck.Test.make ~name:"sparse phys mem matches a flat byte array" ~count:300
    (QCheck.make
       ~print:(QCheck.Print.list pp_mem_op)
       QCheck.Gen.(list_size (int_range 1 40) gen_mem_op))
    (fun ops ->
      let sparse = Array.init 2 (fun _ -> Phys_mem.create region_size) in
      let flat = Array.init 2 (fun _ -> Flat.create region_size) in
      List.for_all (step sparse flat) ops
      (* a region made afterwards still reads as zeros: no write ever
         reached the chunk untouched regions share *)
      && Bytes.equal
           (Phys_mem.read_bytes (Phys_mem.create region_size) ~off:0 ~len:region_size)
           (Flat.create region_size))

(* Views mapped with the same initial protection share it until one is
   protected; the copy must leave every other view as it was. *)
let test_shared_protection_copied_on_protect () =
  let vm = mk_vm () in
  let v1 = Vm.map_view vm Prot.No_access in
  let v2 = Vm.map_view vm Prot.No_access in
  let faults view =
    try
      ignore (Vm.read_u8 vm (Vm.address vm ~view 0));
      false
    with Vm.Access_violation _ -> true
  in
  Vm.protect vm ~view:v1 ~vpage:0 Prot.Read_write;
  Alcotest.(check bool) "view 1 readable" false (faults v1);
  Alcotest.(check bool) "view 2 still faults" true (faults v2);
  Vm.protect vm ~view:v2 ~vpage:0 Prot.Read_only;
  Vm.protect vm ~view:v2 ~vpage:1 Prot.Read_write;
  Alcotest.(check check_prot) "view 1 page 0 as set" Prot.Read_write
    (Vm.protection vm ~view:v1 ~vpage:0);
  Alcotest.(check check_prot) "view 1 page 1 untouched" Prot.No_access
    (Vm.protection vm ~view:v1 ~vpage:1);
  Alcotest.(check check_prot) "view 2 page 0" Prot.Read_only (Vm.protection vm ~view:v2 ~vpage:0);
  (* a view mapped after both copies starts from the initial value *)
  let v3 = Vm.map_view vm Prot.No_access in
  Alcotest.(check bool) "view 3 faults" true (faults v3);
  Alcotest.(check check_prot) "view 3 page 1" Prot.No_access (Vm.protection vm ~view:v3 ~vpage:1)

let suite =
  [
    Alcotest.test_case "prot allows" `Quick test_prot_allows;
    Alcotest.test_case "phys mem roundtrip" `Quick test_phys_mem_typed_roundtrip;
    Alcotest.test_case "phys mem bounds" `Quick test_phys_mem_bounds;
    QCheck_alcotest.to_alcotest qcheck_sparse_matches_flat;
    Alcotest.test_case "memobject rounding" `Quick test_memobject_rounding;
    Alcotest.test_case "views disjoint" `Quick test_views_disjoint_bases;
    Alcotest.test_case "views alias memory" `Quick test_views_alias_same_memory;
    Alcotest.test_case "translate roundtrip" `Quick test_translate_roundtrip;
    Alcotest.test_case "bad address" `Quick test_bad_address;
    Alcotest.test_case "independent protection" `Quick test_independent_protection;
    Alcotest.test_case "fault handler retry" `Quick test_fault_handler_fixes_access;
    Alcotest.test_case "fault storm" `Quick test_fault_storm;
    Alcotest.test_case "privileged view fixed" `Quick test_privileged_view_fixed;
    Alcotest.test_case "privileged bypass" `Quick test_privileged_access_bypasses_protection;
    Alcotest.test_case "protect range" `Quick test_protect_range;
    Alcotest.test_case "shared protection copied" `Quick
      test_shared_protection_copied_on_protect;
    Alcotest.test_case "cache basic" `Quick suite_cache;
    Alcotest.test_case "cache lru" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "tlb lru" `Quick test_tlb_lru;
    Alcotest.test_case "mmu cheap walk" `Quick test_mmu_pte_surcharge_gating;
    Alcotest.test_case "fig5 breaking point" `Slow test_overhead_model_breaking_point;
    Alcotest.test_case "fig5 same slope" `Slow test_overhead_model_same_slope;
    Alcotest.test_case "view-major locality" `Slow test_view_major_order_blunts_break;
    Alcotest.test_case "overallocation moves break" `Slow
      test_unused_allocation_moves_break_earlier;
    Alcotest.test_case "va view limit" `Quick test_max_views_va_limit;
  ]
