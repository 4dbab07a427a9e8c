(** Raw physical memory: a byte region with typed accessors.

    All offsets are byte offsets from the start of the region.  Out-of-range
    access raises [Invalid_argument].

    The region is sparse.  It is held as 4 KB chunks, and a chunk gets bytes
    of its own only on its first write; until then it reads as zeros and
    costs one pointer.  Regions never share written bytes.  An access of up
    to 8 bytes within one chunk is one lookup; longer accesses and the byte
    strings of {!read_bytes} and {!write_bytes} go chunk by chunk. *)

type t

val create : int -> t
(** Zero-filled region of the given size in bytes.  Untouched chunks read as
    zeros and allocate nothing, so the cost is one word per 4 KB until pages
    are written. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit

val get_f64 : t -> int -> float
val set_f64 : t -> int -> float -> unit

val get_int : t -> int -> int
(** 63-bit OCaml int stored as 8 bytes. *)

val set_int : t -> int -> int -> unit

val read_bytes : t -> off:int -> len:int -> bytes
val write_bytes : t -> off:int -> bytes -> unit
