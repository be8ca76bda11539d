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
  ?pool:Par.Pool.t ->
  ?on_round:(float array -> unit) ->
  ?kernel:bool ->
  Packing.Strategy.t ->
  Model.Instance.t ->
  solution option
(** Binary-search the yield with a single strategy as oracle. With a
    [pool] of size > 1 the search runs {!Binary_search.maximize_par} —
    same solution bit-for-bit, fewer oracle rounds. [on_round] observes
    each round's probed yields (instrumentation).

    By default probes run through the probe-shared packing kernel
    (DESIGN.md §11): per-solve item/bin scratch refilled in place,
    memoized sort orders and Permutation-Pack item permutations —
    bit-identical to the naive fresh-allocation path, just cheaper.
    [~kernel:false] runs the naive path instead — the reference the
    differential tests compare against. Kernel sort-memo hits land on the
    [vp_solver.items_cache_hits] counter. *)

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
    placement. [pool] / [on_round] / [kernel] as in {!solve}. *)

val batch_oracle :
  ?kernel:bool ->
  Packing.Strategy.t list ->
  Model.Instance.t ->
  (float -> Model.Placement.t option) * (unit -> unit)
(** The raw fixed-yield probe oracle behind {!solve} and {!solve_multi}
    (kernel-backed unless [~kernel:false], see {!solve}) together with its
    retirement hook, for callers that drive the yield search themselves —
    the batched solve driver ({!Batch}) stepping a {!Binary_search.plan}
    under {!Par.Scheduler}. The oracle owns its probe scratch: one kernel
    per domain that runs one of its probes, built on that domain's first
    probe, shared with no other oracle. Calling the hook after the last
    probe drops those kernels early; an oracle that is never retired
    frees them when it is itself collected. Nothing is kept across
    solves, so concurrent oracles over identically shaped instances
    cannot disturb each other. *)

val evaluate : Model.Instance.t -> Model.Placement.t -> solution option
(** Water-fill a placement into a [solution] (shared by greedy and rounding
    algorithms). *)
