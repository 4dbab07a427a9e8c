(** Translation lookaside buffer model (fully associative, LRU).

    The Pentium II data TLB holds 64 entries; a miss triggers a page-table
    walk whose PTE read goes through the cache hierarchy (see {!Mmu}). *)

type t

val create : entries:int -> t
val access : t -> int -> bool
(** [access t vpn] is [true] on a hit; a miss inserts the virtual page
    number, evicting the LRU entry. *)

val misses : t -> int
