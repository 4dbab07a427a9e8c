type t = { mem : Phys_mem.t; page_size : int; pages : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(page_size = 4096) ~size () =
  if not (is_power_of_two page_size) then
    invalid_arg "Memobject.create: page_size must be a power of two";
  if size <= 0 then invalid_arg "Memobject.create: size must be positive";
  let pages = (size + page_size - 1) / page_size in
  { mem = Phys_mem.create (pages * page_size); page_size; pages }

let mem t = t.mem
let page_size t = t.page_size
let pages t = t.pages
let size t = t.pages * t.page_size
