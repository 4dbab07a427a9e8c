(** Figure 5: overheads of MultiView — traversal slowdown as a function of
    the number of views, for shared-array sizes 512 KB to 16 MB.

    Expected shape (all reproduced by the model): negligible overhead (<4%)
    up to 32 views; breaking points where views x size(MB) ≈ 512 (the PTE
    working set overflowing the 512 KB L2); linear growth beyond, with the
    same slope for every size. *)

open Mp_memsim
module Tab = Mp_util.Tab

let mb = 1024 * 1024

(* [Overhead_model.run] is deterministic (no clock, no RNG), and the sections
   below ask for the same runs more than once: the chart redraws the table's
   grid and every section recomputes its 1-view baselines.  Each distinct
   run is computed once. *)
let memo_run ~iterations =
  let cache = Hashtbl.create 64 in
  fun ?order ?allocated_bytes ~array_bytes ~views () ->
    let key = (order, allocated_bytes, array_bytes, views) in
    match Hashtbl.find_opt cache key with
    | Some r -> r
    | None ->
      let r = Overhead_model.run ~iterations ?order ?allocated_bytes ~array_bytes ~views () in
      Hashtbl.add cache key r;
      r

let run ?(full = false) () =
  Harness.section "Figure 5: MultiView overhead (slowdown vs. 1 view)";
  let sizes =
    if full then [ mb / 2; mb; 2 * mb; 4 * mb; 8 * mb; 16 * mb ]
    else [ mb / 2; mb; 2 * mb; 4 * mb; 8 * mb ]
  in
  let view_counts = [ 16; 32; 64; 128; 256; 512 ] in
  let iterations = if full then 3 else 2 in
  let model_run = memo_run ~iterations in
  let header =
    "array"
    :: List.map (fun v -> Printf.sprintf "%dv" v) view_counts
    @ [ "break@" ]
  in
  let rows =
    List.map
      (fun array_bytes ->
        let baseline = model_run ~array_bytes ~views:1 () in
        let cells =
          List.map
            (fun views ->
              if views > Overhead_model.max_views_for ~array_bytes () then "-"
              else
                let r = model_run ~array_bytes ~views () in
                Tab.fx (Overhead_model.slowdown ~baseline r))
            view_counts
        in
        let predicted_break = 512 * mb / array_bytes in
        (Printf.sprintf "%d KB" (array_bytes / 1024) :: cells)
        @ [ string_of_int predicted_break ])
      sizes
  in
  Tab.print ~header rows;
  print_newline ();
  print_string
    (Tab.chart ~y_label:"slowdown vs 1 view"
       ~series:
         (List.map
            (fun array_bytes ->
              let baseline = model_run ~array_bytes ~views:1 () in
              let label =
                (* distinct first letters: a=512K, b=1M, c=2M, d=4M *)
                match array_bytes / 1024 with
                | 512 -> "a 512KB"
                | 1024 -> "b 1MB"
                | 2048 -> "c 2MB"
                | n -> Printf.sprintf "d %dKB" n
              in
              ( label,
                List.filter_map
                  (fun views ->
                    if views > Overhead_model.max_views_for ~array_bytes () then None
                    else
                      let r = model_run ~array_bytes ~views () in
                      Some (float_of_int views, Overhead_model.slowdown ~baseline r))
                  view_counts ))
            (List.filteri (fun i _ -> i < 4) sizes))
       ());
  Harness.note
    "break@ = predicted breaking point (views x MB = 512, i.e. PTE set = L2 size);";
  Harness.note
    "paper shape: <4%% overhead for <=32 views, linear growth past the break, same slope for all sizes.";
  (* §5's access-locality observation: PTE locality is preserved across
     views, so visiting one view at a time instead of interleaving blunts
     the post-break overhead *)
  Harness.section "§5: PT access locality — interleaved vs. view-major traversal";
  let rows =
    List.map
      (fun (array_bytes, views) ->
        let baseline = model_run ~array_bytes ~views:1 () in
        let inter = model_run ~array_bytes ~views () in
        let major = model_run ~order:`View_major ~array_bytes ~views () in
        [
          Printf.sprintf "%d KB x %d views" (array_bytes / 1024) views;
          Tab.fx (Overhead_model.slowdown ~baseline inter);
          Tab.fx (Overhead_model.slowdown ~baseline major);
        ])
      [ (2 * mb, 512); (4 * mb, 256); (8 * mb, 128) ]
  in
  Tab.print ~header:[ "configuration"; "interleaved"; "view-major" ] rows;
  Harness.note
    "\"locality is not completely lost, but is preserved across views\" — visiting one";
  Harness.note "view at a time consumes each PTE cache line whole and blunts the breakdown.";
  (* §4.1 observation 4 *)
  Harness.section "§4.1 obs. 4: allocating more than is accessed moves the break earlier";
  let touched = mb in
  Tab.print
    ~header:[ "allocated"; "touched"; "views"; "slowdown vs 1 view" ]
    (List.map
       (fun allocated ->
         let baseline = model_run ~array_bytes:touched ~views:1 () in
         let r =
           model_run ~array_bytes:touched
             ~allocated_bytes:allocated ~views:256 ()
         in
         [
           Printf.sprintf "%d MB" (allocated / mb);
           "1 MB";
           "256";
           Tab.fx (Overhead_model.slowdown ~baseline r);
         ])
       [ mb; 2 * mb; 4 * mb ])
