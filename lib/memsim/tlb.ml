type t = {
  entries : int;
  table : (int, int) Hashtbl.t;  (* vpn -> stamp *)
  mutable clock : int;
  mutable misses : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create";
  { entries; table = Hashtbl.create (2 * entries); clock = 0; misses = 0 }

let evict_lru t =
  let victim = ref (-1) and best = ref max_int in
  Hashtbl.iter
    (fun vpn stamp ->
      if stamp < !best then begin
        best := stamp;
        victim := vpn
      end)
    t.table;
  if !victim >= 0 then Hashtbl.remove t.table !victim

let access t vpn =
  t.clock <- t.clock + 1;
  if Hashtbl.mem t.table vpn then begin
    Hashtbl.replace t.table vpn t.clock;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    if Hashtbl.length t.table >= t.entries then evict_lru t;
    Hashtbl.replace t.table vpn t.clock;
    false
  end

let misses t = t.misses
