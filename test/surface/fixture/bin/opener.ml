open A

let () = print_int via_open
