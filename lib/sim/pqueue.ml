type 'a entry = { time : float; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let data = Array.make ncap t.data.(0) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t ~time ~seq value =
  let e = { time; seq; value } in
  if t.size = 0 && Array.length t.data = 0 then t.data <- Array.make 16 e;
  grow t;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  (* sift up *)
  let i = ref (t.size - 1) in
  while
    !i > 0
    &&
    let p = (!i - 1) / 2 in
    less t.data.(!i) t.data.(p)
  do
    let p = (!i - 1) / 2 in
    let tmp = t.data.(p) in
    t.data.(p) <- t.data.(!i);
    t.data.(!i) <- tmp;
    i := p
  done

let pop_entry t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some top
  end

let pop t =
  match pop_entry t with None -> None | Some e -> Some (e.time, e.value)

let pop_min_group t =
  match pop_entry t with
  | None -> None
  | Some first ->
    (* pops come out (time, seq)-ordered, so the group is already seq-sorted *)
    let rec drain acc =
      if t.size > 0 && t.data.(0).time = first.time then
        match pop_entry t with
        | Some e -> drain ((e.seq, e.value) :: acc)
        | None -> acc
      else acc
    in
    Some (first.time, List.rev (drain [ (first.seq, first.value) ]))

