(** A memory object: the analogue of an NT file-mapping section.

    A memory object is a page-aligned region of physical memory that views
    (see {!Vm}) map into virtual address spaces.  Each simulated host owns one
    memory object holding its copy of the DSM shared region.  Its memory is
    sparse ({!Phys_mem}): a page costs storage only once it is written. *)

type t

val create : ?page_size:int -> size:int -> unit -> t
(** [size] is rounded up to a whole number of pages.  [page_size] defaults to
    4096 (Pentium II) and must be a power of two. *)

val mem : t -> Phys_mem.t
val page_size : t -> int
val pages : t -> int
val size : t -> int
(** Rounded-up size in bytes. *)
