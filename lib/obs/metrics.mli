(** Process-wide metrics registry: named counters, high-water gauges and
    log-linear-bucket histograms.

    Recording is sharded per domain: each metric lazily allocates one
    private cell per recording domain (via [Domain.DLS]), so pool workers
    record without taking any lock and without cache-line contention.
    {!snapshot} merges the shards — counter and bucket merges are integer
    sums and gauge merges are maxima, both associative and commutative, so
    the merged totals are independent of how work was sharded: a run at
    [--jobs 1] and [--jobs n] produce byte-identical snapshots for every
    metric whose underlying events are deterministic.

    Metric creation is idempotent: requesting an existing name returns the
    existing metric.  Requesting a name already registered under a
    different metric type raises [Invalid_argument]. *)

type counter
type gauge
type histogram

val counter : ?help:string -> string -> counter

val counter_labeled : ?help:string -> string -> label:string * string -> counter
(** [counter_labeled base ~label:(k, v)] is the counter named
    ["base{k=v}"] — a small per-label family sharing one base name (the
    fleet mux keys arrival counts by rate class this way).  Labels are
    part of the metric name, so they sort, snapshot and merge exactly
    like any other counter.  Raises [Invalid_argument] if any component
    is empty or contains ['{'], ['}'] or ['=']. *)

val incr : counter -> unit
val add : counter -> int -> unit

val counter_value : counter -> int
(** Merged total across all shards (test/introspection helper). *)

val gauge : ?help:string -> string -> gauge

val observe_hwm : gauge -> float -> unit
(** Record a level; the gauge keeps the high-water mark (max merge). *)

val histogram : ?help:string -> string -> histogram

val observe : histogram -> float -> unit
(** Record a value into its log-linear bucket.  NaN and values [<= 0] land
    in the dedicated underflow bucket (bucket 0). *)

val observe_n : histogram -> float -> int -> unit
(** [observe_n h v n] records [v] [n] times in one step: the batch form
    of {!observe}, for callers that count observations per value.
    Raises [Invalid_argument] if [n < 0]. *)

(** Bucket geometry of the log-linear histograms, exposed for property
    tests: [sub] linear sub-buckets per power of two across a fixed
    exponent range, plus one underflow and one overflow bucket. *)
module Buckets : sig
  val n : int
  (** Total bucket count, including underflow (index 0) and overflow
      (index [n - 1]). *)

  val index_of : float -> int
  (** Bucket index a value lands in; total function. *)

  val bounds : int -> float * float
  (** [(lo, hi)] of a bucket: a finite positive value [v] lands in the
      bucket with [lo <= v < hi].  Bucket 0 ([(neg_infinity, 0.)]) holds
      NaN and non-positive values; bucket [n - 1] is the overflow bucket
      with [hi = infinity]. *)
end

module Snapshot : sig
  type hist = {
    count : int;
    mean : float;  (** bucket-midpoint approximation; 0 when empty *)
    p50 : float;
    p90 : float;
    p99 : float;
    max : float;  (** upper bound of the highest occupied bucket *)
    buckets : (int * int) list;  (** (bucket index, count), occupied only *)
  }

  type value = Counter of int | Gauge of float | Histogram of hist
  type t = (string * value) list  (** sorted by metric name *)

  val find : t -> string -> value option
  val counter_value : t -> string -> int
  (** 0 when absent or not a counter. *)

  val filter_prefix : string -> t -> t
  val drop_prefix : string -> t -> t

  val pp : Format.formatter -> t -> unit
  (** Stable human table, one metric per line, e.g.
      [counter desim.events_processed 123456]. *)
end

val snapshot : unit -> Snapshot.t
(** Merge every shard of every registered metric.  Read-only: calling it
    twice in a row (with no recording in between) returns equal values. *)

val reset : unit -> unit
(** Zero every shard of every registered metric (the metrics stay
    registered).  Must not race with recording domains. *)
