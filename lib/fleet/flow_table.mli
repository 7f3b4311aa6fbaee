(** Fixed-width SoA per-flow state table.

    One row per user flow, stored column-wise: unboxed [floatarray]
    columns for the packet / byte / dummy counters and the last-activity
    time, one byte per flow for the rate class — the flat fixed-width
    counter-record idiom of fastnetmon's [map_element_t].  Lookup and
    update are O(1) and allocation-free in steady state; a table for
    10^6 flows is five flat arrays, allocated once in {!create}.

    Counters are integer-valued floats (exact up to 2^53), so the
    per-index additions performed by {!merge} are associative and
    commutative: merging per-shard tables produces the same result in
    any order — the property the fleet sweep's determinism rests on. *)

type t

type snapshot = t
(** A snapshot is just a table its producer no longer mutates (a
    finished shard's table). *)

val create : ?lo:int -> flows:int -> unit -> t
(** A zeroed table covering the global flow-id window
    [\[lo, lo + flows)] ([lo] defaults to 0).  Shards allocate only their
    own slice.  Raises [Invalid_argument] when [flows < 1] or [lo < 0]. *)

val lo : t -> int
(** First global flow id covered. *)

val width : t -> int
(** Number of flows covered. *)

val hi : t -> int
(** One past the last covered flow id ([lo + width]). *)

val record : t -> flow:int -> bytes:int -> now:float -> unit
(** Count one payload packet on [flow]: packets + 1, bytes + [bytes],
    last-activity set to [now].  Raises [Invalid_argument] when [flow]
    is outside the table's window. *)

val spread_dummies : t -> count:int -> unit
(** Amortize [count] link-level dummies evenly across every flow in the
    window (the remainder goes to the lowest ids) — the accounting for a
    shared padded link whose dummies protect all flows behind it at
    once.  Deterministic.  Raises [Invalid_argument] when negative. *)

val set_class : t -> flow:int -> int -> unit
(** Set the flow's rate-class index (0..255). *)

val rate_class : t -> flow:int -> int

val packets : t -> flow:int -> float
val bytes : t -> flow:int -> float
val dummies : t -> flow:int -> float

val last_activity : t -> flow:int -> float
(** [neg_infinity] until the first {!record}. *)

val total_packets : t -> float
val total_bytes : t -> float
val total_dummies : t -> float

val active : t -> since:float -> int
(** Flows whose last activity is at or after [since]. *)

val merge : snapshot -> snapshot -> snapshot
(** Fresh table over the union of the two windows; counters add,
    last-activity and rate class merge by max.  Associative and
    commutative (the additions are exact while counters stay below
    2^53), so any merge tree over per-shard snapshots yields the same
    table. *)
