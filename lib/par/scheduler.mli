(** Deterministic batched solve driver over one domain pool.

    Multiplexes N concurrent solve requests (many tenants) over a single
    {!Pool}: each global round polls every live request in arrival-index
    order for its next batch of tasks, runs the concatenated batch as one
    {!Pool.map} round, and repeats until every request reports done.
    Interleaving is round-robin and fair by construction, and — because
    each request's task points and state transitions depend only on its
    own results — the batched run is bit-identical to running the same
    requests back-to-back on the same pool (DESIGN.md §16; locked by
    test/test_batch_diff.ml).

    The module is generic: a request is any incremental computation that
    alternates between demanding a batch of tasks and consuming their
    results. {!Heuristics.Batch} adapts the yield binary search and the
    direct (search-free) algorithms onto it.

    Counters: [scheduler.requests] (requests admitted), and
    [scheduler.rounds_interleaved] (pool rounds executed — the
    deterministic unit the bench's batched-throughput gate compares
    against the serial run's [binary_search.rounds]). The scheduler keeps
    no state between {!run}s beyond its pool. *)

type round = (unit -> unit) array
(** One request's tasks for one global round. Each task must store its
    result into request-local state; {!Pool.map}'s completion barrier
    makes those writes visible to the request's next step. Tasks run
    concurrently on the pool's domains, so they must not share mutable
    state across tasks and must not call back into the same pool. *)

type request = unit -> round option
(** A stepped request. Called exactly once per global round while live:
    consume the previous round's results (if any) and either return the
    next round's tasks, or [None] when finished. [Some [||]] is allowed
    (the request stays live but contributes no tasks this round). *)

type t

val create : pool:Pool.t -> t
(** A scheduler multiplexing requests over [pool]. Cheap; the pool is
    not owned — the caller keeps responsibility for shutting it down. *)

val pool : t -> Pool.t

val occupancy : t -> int
(** Number of live requests in the currently executing {!run} round
    ([1] when idle). Sampled once per round before any request steps, so
    every request of a round observes the same value — the pool-share
    input to [Heuristics.Binary_search.depth_for]. *)

val run : t -> request array -> unit
(** Drive all [requests] to completion. Requests are stepped in arrival
    (array) order within every round. Re-entrant calls are not
    supported — one [run] at a time per scheduler. If a task raises, the
    first exception (in pool claim order) propagates after the round's
    in-flight tasks finish, mid-flight request state stays consistent
    (each request owns its buffers), and the scheduler is reusable. *)
