type t = {
  line_shift : int;
  set_mask : int;
  assoc : int;
  tags : int array;  (* sets * assoc; -1 = invalid *)
  stamps : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~size_bytes ~line_bytes ~assoc =
  if not (is_power_of_two line_bytes) then invalid_arg "Cache.create: line size";
  if assoc <= 0 then invalid_arg "Cache.create: assoc";
  if size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg "Cache.create: size not divisible by line*assoc";
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_power_of_two sets) then invalid_arg "Cache.create: set count";
  {
    line_shift = log2 line_bytes;
    set_mask = sets - 1;
    assoc;
    tags = Array.make (sets * assoc) (-1);
    stamps = Array.make (sets * assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let locate t addr =
  let line = addr lsr t.line_shift in
  let set = line land t.set_mask in
  (line, set * t.assoc)

let find t line base =
  let rec go i = if i = t.assoc then None else if t.tags.(base + i) = line then Some (base + i) else go (i + 1) in
  go 0

let access t addr =
  let line, base = locate t addr in
  t.clock <- t.clock + 1;
  match find t line base with
  | Some slot ->
    t.hits <- t.hits + 1;
    t.stamps.(slot) <- t.clock;
    true
  | None ->
    t.misses <- t.misses + 1;
    (* evict LRU way of the set *)
    let victim = ref base in
    for i = 1 to t.assoc - 1 do
      if t.stamps.(base + i) < t.stamps.(!victim) then victim := base + i
    done;
    t.tags.(!victim) <- line;
    t.stamps.(!victim) <- t.clock;
    false

let probe t addr =
  let line, base = locate t addr in
  find t line base <> None

let hits t = t.hits
let misses t = t.misses

