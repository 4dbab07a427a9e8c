(* A.dead is only named in this comment and the string below. *)
let label = "A.dead"
let () = print_int (A.used 1)

module B = A

let () = print_int B.via_alias
let () = print_int A.Inner.nested_used
