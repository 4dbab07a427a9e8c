open Mp_sim
open Mp_gms

let config ?(subpage_bytes = 1024) ?(resident_pages = 4) ?(prefetch_rest = false) () =
  {
    Gms.Config.default with
    subpage_bytes;
    resident_pages;
    prefetch_rest;
    address_space = 64 * 4096;
  }

let scenario ?subpage_bytes ?resident_pages ?prefetch_rest client =
  let e = Engine.create () in
  let t =
    Gms.create e ~config:(config ?subpage_bytes ?resident_pages ?prefetch_rest ()) ~servers:2
      ()
  in
  Gms.spawn_client t (fun () -> client t);
  Gms.run t;
  (e, t)

let test_read_write_roundtrip () =
  let v = ref 0 in
  let _e, t =
    scenario (fun t ->
        Gms.write_int t 0 42;
        Gms.write_int t 8 99;
        v := Gms.read_int t 0 + Gms.read_int t 8)
  in
  Alcotest.(check int) "roundtrip" 141 !v;
  Alcotest.(check int) "one subpage miss" 1 (Gms.page_misses t)

let test_eviction_and_reload () =
  (* touch more pages than the resident budget; early pages must be written
     back and reloaded with their data intact *)
  let ok = ref false in
  let _e, t =
    scenario ~resident_pages:3 (fun t ->
        for p = 0 to 7 do
          Gms.write_int t (p * 4096) (1000 + p)
        done;
        (* page 0 was evicted long ago; reloading must see 1000 *)
        ok := Gms.read_int t 0 = 1000)
  in
  Alcotest.(check bool) "evicted data survives" true !ok;
  Alcotest.(check bool) "evictions happened" true (Gms.evictions t >= 5);
  Alcotest.(check bool) "dirty subpages written back" true (Gms.writebacks t >= 5)

let test_clean_eviction_no_writeback () =
  let _e, t =
    scenario ~resident_pages:2 (fun t ->
        (* only reads: evictions ship nothing home *)
        for p = 0 to 5 do
          ignore (Gms.read_int t (p * 4096))
        done)
  in
  Alcotest.(check bool) "evictions" true (Gms.evictions t >= 3);
  Alcotest.(check int) "no writebacks" 0 (Gms.writebacks t)

let test_subpage_transfers_only_what_is_touched () =
  (* touching one word per page moves one subpage, not the whole page *)
  let run subpage_bytes =
    let _e, t =
      scenario ~subpage_bytes ~resident_pages:64 (fun t ->
          for p = 0 to 15 do
            ignore (Gms.read_int t (p * 4096))
          done)
    in
    Gms.bytes_transferred t
  in
  let small = run 512 and full = run 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "512B subpages (%d B) move ~8x less than full pages (%d B)" small full)
    true
    (small * 6 < full)

let test_dense_access_faults_per_subpage () =
  let _e, t =
    scenario ~subpage_bytes:1024 ~resident_pages:64 (fun t ->
        (* read a whole page word by word: 4 subpage fetches *)
        for w = 0 to 511 do
          ignore (Gms.read_int t (w * 8))
        done)
  in
  Alcotest.(check int) "four fetches" 4 (Gms.subpage_fetches t);
  Alcotest.(check int) "four misses" 4 (Gms.page_misses t)

let test_prefetch_rest_hides_misses () =
  let misses prefetch_rest =
    let _e, t =
      scenario ~subpage_bytes:512 ~resident_pages:64 ~prefetch_rest (fun t ->
          for p = 0 to 7 do
            (* demand-touch the first byte, compute, then scan the page *)
            ignore (Gms.read_int t (p * 4096));
            Engine.delay 2000.0;
            for s = 1 to 7 do
              ignore (Gms.read_int t ((p * 4096) + (s * 512)))
            done
          done)
    in
    Gms.page_misses t
  in
  let without = misses false and with_pf = misses true in
  Alcotest.(check bool)
    (Printf.sprintf "prefetch (%d misses) << demand-only (%d)" with_pf without)
    true
    (with_pf * 2 < without)

let test_straddling_access_rejected () =
  let rejected = ref false in
  let _e, _t =
    scenario (fun t ->
        try ignore (Gms.read_int t 1020) with Invalid_argument _ -> rejected := true)
  in
  Alcotest.(check bool) "straddle rejected" true !rejected

let test_miss_latency_scales_with_subpage () =
  let mean subpage_bytes =
    let _e, t =
      scenario ~subpage_bytes ~resident_pages:64 (fun t ->
          for p = 0 to 15 do
            ignore (Gms.read_int t (p * 4096))
          done)
    in
    Gms.mean_miss_us t
  in
  let small = mean 256 and big = mean 4096 in
  Alcotest.(check bool)
    (Printf.sprintf "256B miss (%.0f us) < 4KB miss (%.0f us)" small big)
    true (small < big)

let suite =
  [
    Alcotest.test_case "read/write roundtrip" `Quick test_read_write_roundtrip;
    Alcotest.test_case "eviction and reload" `Quick test_eviction_and_reload;
    Alcotest.test_case "clean eviction" `Quick test_clean_eviction_no_writeback;
    Alcotest.test_case "subpage transfers less" `Quick test_subpage_transfers_only_what_is_touched;
    Alcotest.test_case "dense faults per subpage" `Quick test_dense_access_faults_per_subpage;
    Alcotest.test_case "prefetch rest" `Quick test_prefetch_rest_hides_misses;
    Alcotest.test_case "straddle rejected" `Quick test_straddling_access_rejected;
    Alcotest.test_case "miss latency by subpage size" `Quick test_miss_latency_scales_with_subpage;
  ]
