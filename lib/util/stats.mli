(** Running statistics and named counters for instrumenting the simulator. *)

module Summary : sig
  (** Streaming mean / variance / extrema (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val stddev : t -> float
  (** Sample standard deviation; 0 with fewer than two samples. *)

  val max : t -> float
  (** Extrema raise [Invalid_argument] when empty. *)

  val total : t -> float
  val merge : t -> t -> t
  (** [merge a b] is a fresh summary equivalent to having seen both streams. *)
end

module Counters : sig
  (** A mutable table of named integer counters.  Writers declare a name
      once with {!counter} and bump the returned handle, so a hot path pays
      no hashing; readers look names up with {!get} or take a snapshot with
      {!to_list}. *)

  type t
  type counter

  val create : unit -> t

  val counter : t -> string -> counter
  (** The handle for [name], declaring it (at 0) on first use. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int

  val get : t -> string -> int
  (** 0 for a name never declared. *)

  val to_list : t -> (string * int) list
  (** Every declared name, sorted by name. *)
end

module Histogram : sig
  (** Fixed-width bucket histogram over \[0, width*buckets); overflow goes to
      the last bucket. *)

  type t

  val create : bucket_width:float -> buckets:int -> t

  val add : t -> float -> unit
  (** Every input lands in a defined bucket: negative values (and [-inf])
      count into the first bucket, while NaN, [+inf] and values at or beyond
      the last bucket's edge count into the last. *)

  val count : t -> int
  val bucket_counts : t -> int array
  val percentile : t -> float -> float
  (** [percentile t 0.99] returns the upper edge of the bucket containing the
      given quantile.  Raises [Invalid_argument] when empty or p outside
      [\[0,1\]]. *)
end
