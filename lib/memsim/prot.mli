(** Page protection, mirroring [PAGE_NOACCESS] / [PAGE_READONLY] /
    [PAGE_READWRITE]. *)

type t = No_access | Read_only | Read_write

type access = Read | Write

val allows : t -> access -> bool
val to_string : t -> string
