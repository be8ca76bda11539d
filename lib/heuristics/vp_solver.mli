(** Vector-packing placement solvers.

    Adapters from {!Packing} strategies to the resource-allocation problem:
    at a candidate yield, every service becomes an item whose demand is
    [(rᵉ + y·nᵉ, rᵃ + y·nᵃ)] and every node a bin; a successful packing is
    a valid placement at that yield.

    Packing strategies are one kind of yield-probe oracle; the LP
    relaxation is the other ({!Milp.relaxed_yield_search}, which threads a
    warm-start basis through {!Binary_search.maximize_warm} instead of a
    packing scratch state). *)

type solution = {
  placement : Model.Placement.t;
  min_yield : float;
      (** Actual minimum yield of the placement (water-filled), which is at
          least the yield the binary search proved feasible. *)
}

val items_at_yield : Model.Instance.t -> float -> Packing.Item.t array
(** Service demands at a common yield, in service-id order. *)

val fresh_bins : Model.Instance.t -> Packing.Bin.t array
(** Empty bins mirroring the instance's nodes. *)

val pack_at_yield :
  Packing.Strategy.t -> Model.Instance.t -> float -> Model.Placement.t option
(** One fixed-yield feasibility probe with a single strategy. *)

val solve :
  ?tolerance:float ->
  ?on_round:(float array -> unit) ->
  ?kernel:bool ->
  Packing.Strategy.t ->
  Model.Instance.t ->
  solution option
(** Binary-search the yield with a single strategy as oracle. [on_round]
    observes each probed yield (instrumentation). A single-strategy probe
    has nothing to run in parallel, so there is no pool.

    By default probes run through the probe-shared packing kernel
    (DESIGN.md §11): per-solve item/bin scratch refilled in place,
    memoized sort orders and Permutation-Pack item permutations —
    bit-identical to the naive fresh-allocation path, just cheaper.
    [~kernel:false] runs the naive path instead — the reference the
    differential tests compare against. Kernel sort-memo hits land on the
    [vp_solver.items_cache_hits] counter, counted as the sequential probe
    meets them. *)

val solve_multi :
  ?tolerance:float ->
  ?pool:Par.Pool.t ->
  ?on_round:(float array -> unit) ->
  ?kernel:bool ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  solution option
(** Binary-search where each probe tries the strategies in order and
    succeeds as soon as one packs — the META* construction (§3.5.3,
    §3.5.5). The achieved minimum yield is evaluated on the final
    placement. With a [pool] of size > 1 each probe runs its strategy
    attempts as a first-success search over the pool
    ({!Par.Pool.find_first}, DESIGN.md §8): the probe returns the
    lowest-index strategy that packs, the sequential answer, so the
    solution is bit-identical and every metric counts the sequential
    work. Attempts run past the winner are recorded on the [probe] trace
    span ([off_path]), never in the metrics. [on_round] / [kernel] as in
    {!solve}. *)

val batch_oracle :
  ?kernel:bool ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  (float -> Model.Placement.t option) * (unit -> unit)
(** The raw fixed-yield probe oracle behind {!solve} and {!solve_multi}
    (kernel-backed unless [~kernel:false], see {!solve}) together with its
    retirement hook, for callers that drive the yield search themselves —
    the batched solve driver ({!Batch}) stepping a {!Binary_search.plan}
    under {!Par.Scheduler}. Its probes scan the strategies sequentially:
    the batched driver runs each probe as a task on the scheduler's pool,
    where a nested pool call is forbidden. The oracle owns its probe
    scratch: one kernel per domain that runs one of its probes, built on
    that domain's first probe, shared with no other oracle. Calling the
    hook after the last probe drops those kernels early; an oracle that
    is never retired frees them when it is itself collected. Nothing is
    kept across solves, so concurrent oracles over identically shaped
    instances cannot disturb each other. *)

val evaluate : Model.Instance.t -> Model.Placement.t -> solution option
(** Water-fill a placement into a [solution] (shared by greedy and rounding
    algorithms). *)
