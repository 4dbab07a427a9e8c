(** A TreadMarks/Munin-style relaxed-consistency DSM baseline.

    Home-based eager release consistency with twins and run-length diffs, at
    page granularity:

    - a write fault on a present page is {e local}: twin the page, open it
      for writing, no protocol traffic — multiple concurrent writers per
      page are allowed, which is how relaxed consistency defeats false
      sharing;
    - at a release (unlock, barrier entry, {!push_to_all}) every dirty page
      is diffed against its twin (250 µs per 4 KB, the §4.2 measurement) and
      the diff is shipped to the page's home, which applies it;
    - at an acquire (lock grant, barrier exit) the manager supplies write
      notices and the host invalidates pages dirtied by others since its
      last synchronization.

    Correct for data-race-free applications, like the systems it models.
    This is the comparison point for the paper's claim that fine-grain
    sequential consistency is competitive with relaxed consistency. *)

type t
type ctx

val create : Mp_sim.Engine.t -> hosts:int -> ?polling:Mp_net.Polling.mode -> unit -> t
(** A 16 MB shared object in 4 KB pages, with the §4.2 page-based costs
    (26 µs fault, 20 µs twin, 250 µs per 4 KB diff). *)

val diffs_created : t -> int
val diff_bytes : t -> int
val twins_created : t -> int

include Mp_dsm.Dsm_intf.S with type t := t and type ctx := ctx
