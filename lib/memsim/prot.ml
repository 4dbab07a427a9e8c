type t = No_access | Read_only | Read_write

type access = Read | Write

let allows prot access =
  match (prot, access) with
  | Read_write, (Read | Write) -> true
  | Read_only, Read -> true
  | Read_only, Write -> false
  | No_access, (Read | Write) -> false

let to_string = function
  | No_access -> "NoAccess"
  | Read_only -> "ReadOnly"
  | Read_write -> "ReadWrite"
