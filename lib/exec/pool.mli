(** Deterministic domain-pool parallelism for embarrassingly parallel
    workloads (independent Monte-Carlo trace collections, sweep points,
    trial batches).

    Design contract: every task must be a pure function of its index (and
    of data captured at fan-out time) — in particular, any randomness must
    come from an RNG the task creates itself from a seed derived from its
    index (see {!Prng.Rng.mix_seed}).  Under that
    contract the combinators here return results that are {b bit-identical
    to the sequential run at any worker count}: results are stored by task
    index, so neither domain scheduling nor completion order can leak into
    the output.

    Worker accounting is global: the pool holds [jobs - 1] spare worker
    tokens (the calling domain is always the [jobs]-th worker).  A nested
    parallel call simply finds no spare tokens and runs inline, so the
    total number of live domains never exceeds the configured [jobs] no
    matter how combinators are nested, and [jobs = 1] degenerates to the
    plain sequential loop with no domain spawns at all. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]: what the runtime believes the
    hardware supports. *)

val default_jobs : unit -> int
(** Resolved worker count: the last {!set_default_jobs} value if any,
    otherwise a positive integer parsed from the [EXEC_JOBS] environment
    variable, otherwise {!available_cores} capped at 16. *)

val set_default_jobs : int -> unit
(** Set the global worker count (e.g. from a [--jobs] flag).  Values are
    clamped to at most 512.  Raises [Invalid_argument] if [jobs < 1].
    Must not be called while parallel combinators are running. *)

val spare_tokens : unit -> int
(** Number of spare worker tokens currently available (introspection for
    tests: equals [default_jobs () - 1] when the pool is idle). *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f] with the global worker count set to [n],
    restoring the previous count afterwards (also on raise).  For
    benches and tests that compare scheduling behaviours; like
    {!set_default_jobs} it must not be called while parallel combinators
    are running.  Results of the combinators are bit-identical either
    way — only concurrency changes. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] is [List.map f xs] computed by up to [jobs]
    domains (default {!default_jobs}, further limited by the free global
    tokens).  Order of the result follows [xs].  If one or more tasks
    raise, every remaining task still runs, the domains are joined, and
    the exception of the {e lowest-indexed} failing task is re-raised —
    deterministic regardless of scheduling. *)

val parallel_init : ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [Array.init], parallelized as {!parallel_map}. *)

val both : ?jobs:int -> (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] runs the two thunks concurrently when a spare worker is
    available, sequentially ([f] first) otherwise.  If both raise, [f]'s
    exception wins (it is the lower-indexed task). *)
