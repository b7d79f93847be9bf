(** Sample collection and summary statistics for experiment metrics.

    Two shapes of instrument live here, both allocation-light and safe to
    call on hot paths:

    - a float {e reservoir} ({!t}) that keeps every sample for exact
      percentiles — right for end-of-run latency summaries;
    - fixed-bucket {!Histogram}s that keep only counts — right for always-on
      metrics (commit latency per replica, uplink backlog) where the sample
      stream is unbounded.

    Everything is total: querying an empty collector yields [nan] / ["empty"]
    rather than raising, so metric plumbing never needs emptiness guards. *)

type t
(** A mutable reservoir of float samples (e.g. per-transaction latencies). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val is_empty : t -> bool

val mean : t -> float
(** [0.0] on an empty reservoir (a sum over nothing). *)

val stddev : t -> float
val min : t -> float
val max : t -> float

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]], nearest-rank on the sorted
    samples. Returns [nan] on an empty reservoir (total — callers need no
    emptiness guard). Raises [Invalid_argument] only when [p] is outside
    [\[0,100\]]. *)

val summary : t -> string
(** One-line human-readable summary: n/mean/p50/p99/max; ["empty"] when no
    samples have been recorded. *)

(** {1 Fixed-bucket histograms}

    Prometheus-style: a fixed array of upper bucket edges plus an implicit
    [+inf] overflow bucket; observing is O(#buckets) with zero allocation,
    so histograms can sit on per-message paths. Unlike the reservoir, memory
    is constant no matter how many samples arrive. *)

module Histogram : sig
  type t

  val create : buckets:float array -> t
  (** [buckets] are the {e upper} edges, strictly increasing; a final
      [+inf] bucket is always added implicitly. Raises [Invalid_argument]
      if the edges are not strictly increasing. An empty array is allowed
      (every sample lands in the overflow bucket). *)

  val latency_ms_buckets : float array
  (** Log-spaced default edges for millisecond latencies: 1 ms … 60 s. *)

  val size_buckets : float array
  (** Log-spaced default edges for byte sizes / µs backlogs: 64 … 16 Mi. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float

  val mean : t -> float
  (** [nan] when empty. *)

  val buckets : t -> (float * int) array
  (** [(upper_edge, count)] pairs in edge order, {e non}-cumulative, the
      last entry being the [(infinity, overflow_count)] bucket. *)

  val cumulative : t -> (float * int) array
  (** Same edges with cumulative counts; the last count equals {!count}. *)

  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [\[0,1\]]: the upper edge of the first
      bucket whose cumulative count reaches [q * count] — an upper bound on
      the true quantile, as precise as the bucket layout. [nan] when
      empty. *)

  val reset : t -> unit
end
