(** Figure 6: speedups of the five applications on 1-8 hosts (left) and the
    execution-time breakdown on eight hosts (right). *)

open Mp_millipage
module Tab = Mp_util.Tab

let host_counts = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let run ?(fast = false) () =
  let polling = if fast then Mp_net.Polling.Fast else Mp_net.Polling.nt_mode in
  Harness.section
    (Printf.sprintf "Figure 6 (left): speedups, 1-8 hosts (%s polling)"
       (if fast then "idealized fast" else "NT-timer"));
  let results =
    List.map
      (fun name ->
        let outcomes =
          List.map (fun h -> (h, Apps_runner.by_name ~polling name h)) host_counts
        in
        (name, outcomes))
      Apps_runner.names
  in
  let header = "app" :: List.map string_of_int host_counts @ [ "verified" ] in
  Tab.print ~header
    (List.map
       (fun (name, outcomes) ->
         let t1 = (List.assoc 1 outcomes).Apps_runner.time_us in
         let cells =
           List.map
             (fun (_, (o : Apps_runner.outcome)) -> Tab.fx (t1 /. o.time_us))
             outcomes
         in
         let all_ok =
           List.for_all (fun (_, (o : Apps_runner.outcome)) -> o.verified) outcomes
         in
         (name :: cells) @ [ (if all_ok then "ok" else "FAIL") ])
       results);
  Harness.note
    "paper (8 hosts): SOR ~7.1, IS ~6.7, LU ~4.6, WATER ~3.8, TSP ~3.6 (read off Figure 6).";
  print_newline ();
  print_string
    (Tab.chart ~y_label:"speedup"
       ~series:
         (("/ linear", List.map (fun h -> (float_of_int h, float_of_int h)) host_counts)
         :: List.map
              (fun (name, outcomes) ->
                let t1 = (List.assoc 1 outcomes).Apps_runner.time_us in
                ( name,
                  List.map
                    (fun (h, (o : Apps_runner.outcome)) -> (float_of_int h, t1 /. o.time_us))
                    outcomes ))
              results)
       ());
  Harness.section "Figure 6 (right): time breakdown at 8 hosts";
  Tab.print
    ~header:[ "app"; "comp"; "prefetch"; "read fault"; "write fault"; "synch" ]
    (List.map
       (fun (name, outcomes) ->
         let o = List.assoc 8 outcomes in
         name
         :: List.map (fun (_, f) -> Harness.pct f)
              (Breakdown.fractions o.Apps_runner.breakdown))
       results)
