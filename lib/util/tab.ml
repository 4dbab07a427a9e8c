type align = Left | Right

let pad a width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match a with Left -> s ^ fill | Right -> fill ^ s

let render ?align ~header rows =
  let ncols = List.length header in
  let norm row =
    let n = List.length row in
    if n >= ncols then row else row @ List.init (ncols - n) (fun _ -> "")
  in
  let rows = List.map norm rows in
  let aligns =
    match align with
    | Some a when List.length a = ncols -> a
    | Some _ | None -> List.mapi (fun i _ -> if i = 0 then Left else Right) header
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let line cells =
    List.map2 (fun (w, a) c -> pad a w c) (List.combine widths aligns) cells
    |> String.concat "  "
  in
  let rule = String.concat "--" (List.map (fun w -> String.make w '-') widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print ?align ~header rows = print_string (render ?align ~header rows)

let fu x =
  if Float.abs x >= 100000.0 then Printf.sprintf "%.2e" x
  else if Float.abs x >= 100.0 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.1f" x

let fx x = Printf.sprintf "%.2f" x

let chart ?(width = 56) ?(y_label = "") ~series () =
  let height = 14 in
  let points = List.concat_map snd series in
  if points = [] then "(no data)\n"
  else begin
    let xs = List.map fst points and ys = List.map snd points in
    let x_min = List.fold_left Float.min infinity xs in
    let x_max = List.fold_left Float.max neg_infinity xs in
    let y_min = Float.min 0.0 (List.fold_left Float.min infinity ys) in
    let y_max = List.fold_left Float.max neg_infinity ys in
    let y_max = if y_max = y_min then y_min +. 1.0 else y_max in
    let x_span = if x_max = x_min then 1.0 else x_max -. x_min in
    let grid = Array.make_matrix height width ' ' in
    List.iteri
      (fun i (label, pts) ->
        let letter =
          if String.length label > 0 then label.[0] else Char.chr (Char.code 'a' + i)
        in
        List.iter
          (fun (x, y) ->
            let col =
              int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1))
            in
            let row =
              int_of_float ((y -. y_min) /. (y_max -. y_min) *. float_of_int (height - 1))
            in
            let row = height - 1 - max 0 (min (height - 1) row) in
            grid.(row).(max 0 (min (width - 1) col)) <- letter)
          pts)
      series;
    let buf = Buffer.create 1024 in
    Array.iteri
      (fun r line ->
        let y_here =
          y_max -. (float_of_int r /. float_of_int (height - 1) *. (y_max -. y_min))
        in
        Buffer.add_string buf (Printf.sprintf "%8s |" (fu y_here));
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (Printf.sprintf "%8s +%s\n" "" (String.make width '-'));
    Buffer.add_string buf
      (Printf.sprintf "%8s  %-8s%s%8s\n" "" (fu x_min)
         (String.make (max 1 (width - 16)) ' ')
         (fu x_max));
    if y_label <> "" then Buffer.add_string buf (Printf.sprintf "  (y: %s)\n" y_label);
    List.iter
      (fun (label, _) ->
        if String.length label > 0 then
          Buffer.add_string buf (Printf.sprintf "  %c = %s\n" label.[0] label))
      series;
    Buffer.contents buf
  end
