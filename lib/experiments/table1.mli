(** Table 1 & Table 2 driver: pairwise comparison of the major heuristics
    (RRND, RRNZ, METAGREEDY, METAVP, METAHVP) and their run times, per
    service-count scenario. *)

type scenario = {
  services : int;
  hosts : int;
  n_instances : int;
  names : string array;
  yields : float option array array;  (** [algorithm].(instance) *)
  mean_runtime : float array;  (** seconds, averaged over all instances *)
}

val run :
  ?progress:(string -> unit) ->
  ?pool:Par.Pool.t ->
  ?probe_pool:Par.Pool.t ->
  ?sched:Par.Scheduler.t ->
  Scale.t ->
  scenario list
(** One scenario per entry of [scale.table1_services]; instances sweep the
    scale's CoV and slack lists. With a [pool], trials fan out over its
    domains; with a [probe_pool], each trial's yield probes instead run
    their strategy attempts in parallel over that pool
    ({!Heuristics.Vp_solver.solve_multi}); with a [sched], each scenario's full trial set runs
    as one batched multi-tenant workload ({!Heuristics.Batch.solve_batch})
    whose probe rounds interleave on the scheduler's pool — [sched]
    supersedes the other two, pass exactly one. Every mode leaves the
    yields (and thus {!report_table1}) identical to the sequential run —
    only [mean_runtime] varies with machine load (in batched mode it is
    the batch wall time apportioned evenly over the trials). *)

val report_table1 : scenario list -> string
(** The (Y_{A,B}, S_{A,B}) matrices, one per scenario — paper Table 1. *)

val report_table2 : scenario list -> string
(** Mean run times per algorithm and scenario — paper Table 2. *)
