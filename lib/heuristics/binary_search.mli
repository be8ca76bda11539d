(** Binary search on the yield (paper §3.5).

    Since at a fixed yield every service's demand is fixed, any packing
    heuristic doubles as a feasibility oracle for that yield; maximizing the
    minimum yield then reduces to a binary search for the largest yield at
    which the oracle succeeds. The search stops when the bracketing interval
    is narrower than the paper's threshold 1e-4.

    {!maximize_par} is the speculative multi-probe variant: one pool round
    evaluates the candidate yields of the next few bisection levels
    concurrently and then resolves the ordinary probe path through the
    precomputed answers. Because packing oracles are {e not} monotone in the
    yield (a heuristic can pack at 0.6 yet fail at 0.5), any parallel search
    that is bit-identical to the sequential one must probe the {e same}
    points and take the {e same} branch decisions — speculation over the
    bisection tree is exactly that, trading wasted off-path probes (on
    otherwise idle domains) for several bracket levels per round. The
    speculation {e depth} — how many future levels one round precomputes —
    only sizes the fan, never the on-path points, so it is a free parameter
    of the search; the pooled drivers all take it from {!depth_for}, a pure
    function of pool size and live-request count.

    {!plan} exposes the same search as a steppable state machine so
    {!Par.Scheduler} can interleave many searches' rounds; {!maximize_par}
    is a single-request driver over it. *)

val default_tolerance : float
(** 1e-4, the paper's threshold. *)

val maximize :
  ?tolerance:float ->
  ?on_round:(float array -> unit) ->
  (float -> 'a option) ->
  ('a * float) option
(** [maximize oracle] probes yields in [0, 1]. Returns the solution produced
    at the highest successful probe together with that yield, or [None] when
    the oracle already fails at yield 0. The oracle is first probed at 1
    (instances with slack can often run everything at full performance),
    then at 0, then bisected. A non-positive [tolerance] is clamped to
    {!default_tolerance} (it would otherwise never terminate). [on_round]
    is called before every oracle round with the yields probed in it —
    always a singleton here; instrumentation only. *)

val maximize_warm :
  ?tolerance:float ->
  ?on_round:(float array -> unit) ->
  init:'w ->
  ('w -> float -> 'w * 'a option) ->
  ('a * float) option
(** [maximize_warm ~init oracle] is {!maximize} for oracles that carry an
    accumulator: each probe receives the state returned by the previous
    probe (starting from [init]) alongside the candidate yield. The state
    is threaded through feasible {e and} infeasible probes but never
    consulted by the search itself, so the probe schedule is exactly
    {!maximize}'s. Used to carry LP warm-start bases across successive
    yield probes ({!Milp.relaxed_yield_search}): probe [k+1] re-optimizes
    from probe [k]'s basis instead of solving from scratch. *)

val levels_for : pool_size:int -> int
(** ⌈log₂(k+1)⌉ (at least 1): the bisection levels one k-domain round can
    resolve — the default speculation depth. *)

val depth_for : pool_size:int -> occupancy:int -> int
(** The speculation depth of the pooled drivers (DESIGN.md §16):
    [levels_for ~pool_size:(max 1 (pool_size / occupancy))]. With
    [occupancy] live searches sharing a [pool_size]-domain pool, each
    search's fair share is [pool_size / occupancy] domains, and one round
    resolves as many levels as that share can probe at once.
    {!maximize_par} uses [~occupancy:1]; {!Batch} the scheduler's live
    count. Depth never affects which points are probed, only how many are
    precomputed, so the rule moves round counts, never results. *)

type 'a plan
(** A steppable speculative yield search over oracles of type
    [float -> 'a option] — the state machine {!maximize_par} drives alone
    and {!Par.Scheduler} interleaves across many requests. *)

val plan :
  ?tolerance:float ->
  ?on_round:(float array -> unit) ->
  depth:(remaining:int -> int) ->
  unit ->
  'a plan
(** A fresh search. [depth ~remaining] is consulted once per bisect round
    with the number of levels still separating the bracket from the
    tolerance; its result is clamped to [\[1, remaining\]] (the
    remaining-levels cap keeps final rounds from fanning out candidates no
    resolution path can consume). Counters are shared with the sequential
    search ([binary_search.rounds/probes]), plus
    [binary_search.speculative_waste] for discarded off-path probes and
    the [binary_search.depth] histogram of chosen depths. *)

val plan_next : 'a plan -> prev:'a option array -> float array option
(** Consume the verdicts of the outstanding batch (pass [~prev:[||]] on
    the first call) and emit the next batch of candidate yields, or
    [None] when the search is finished. The caller must evaluate {e all}
    returned points with the pure oracle and pass the verdicts, in point
    order, to the next call — raising [Invalid_argument] on a length
    mismatch. Batches replay the sequential probe path exactly:
    [[|1.|]], then [[|0.|]], then speculative fans in heap order. *)

val plan_result : 'a plan -> ('a * float) option
(** The search outcome — meaningful once {!plan_next} returned [None]:
    the solution at the highest successful probe, or [None] when yield 0
    already failed. *)

val plan_finished : 'a plan -> bool

val maximize_par :
  ?tolerance:float ->
  ?on_round:(float array -> unit) ->
  pool:Par.Pool.t ->
  (float -> 'a option) ->
  ('a * float) option
(** [maximize_par ~pool oracle] returns bit-identical results to
    {!maximize} at the same tolerance, in fewer oracle rounds: each round
    fans the candidate yields of the next [m] bisection levels over the
    pool ({!Par.Pool.map}) and walks the sequential probe path through the
    precomputed results, so the bracket shrinks by [2^m] per round instead
    of 2. [m] is [depth_for ~pool_size ~occupancy:1] (= [levels_for
    ~pool_size]), capped by the levels actually remaining. Drive {!plan}
    directly for any other depth policy — every depth yields the same
    result, only round counts and speculative waste change, which the
    forced-depth differential sweep locks.
    Identity holds for any {e pure} oracle — candidate points are computed
    with the sequential midpoint arithmetic, branch decisions replay the
    sequential ones, and off-path speculative results are discarded.
    Oracles are evaluated concurrently, so they must be thread-safe as
    well as pure; if one raises, the first exception (in claim order) is
    re-raised after the round's in-flight probes finish and the pool
    remains usable. A pool of size 1 degenerates to the sequential probe
    sequence exactly. [on_round] is called once per round with the round's
    candidate yields. *)
