(** Multi-tenant batched solving over one domain pool.

    Adapts {!Algorithms} onto {!Par.Scheduler} requests: yield-search
    algorithms ({!Algorithms.Yield_search}) are stepped round by round —
    their probe batches from all jobs interleave fairly in each pool
    round, with speculation depth
    [Binary_search.depth_for ~pool_size ~occupancy] from the pool size
    and the scheduler's live-request count — while {!Algorithms.Direct}
    algorithms run as single one-shot tasks. Each yield search owns its
    probe scratch ({!Vp_solver.batch_oracle}) and drops it on
    completion; nothing is shared between jobs or kept after the batch.

    Results are bit-identical to solving the same jobs back-to-back
    sequentially, at any pool size — locked by test/test_batch_diff.ml —
    and round counts are a deterministic function of the job list and
    the pool size. *)

type job = { algo : Algorithms.t; instance : Model.Instance.t }

val solve_batch :
  ?tolerance:float ->
  sched:Par.Scheduler.t ->
  job array ->
  Vp_solver.solution option array
(** Drive all [jobs] to completion over the scheduler's pool; results in
    input order. [tolerance] as in {!Vp_solver.solve_multi}. *)
