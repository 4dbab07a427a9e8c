(* A use inside the defining module is no caller. *)
let dead = 1
let used x = x + dead
let via_alias = 2
let via_open = 3
let tested () = true

module Inner = struct
  let nested_used = 4
  let nested_dead = 5
end
