(* The benchmark's four workloads: seeded inputs, one user-visible request
   each, and the result checks. Every instance and platform is generated
   here from the workload seed; the library only ever sees the generated
   inputs. *)

type kind = Batch_small | Solve_large | Lp_rounding | Online

let all =
  [
    ("batch-small", Batch_small);
    ("solve-large", Solve_large);
    ("lp-rounding", Lp_rounding);
    ("online", Online);
  ]

let name k = fst (List.find (fun (_, k') -> k' = k) all)

(* Distinct requests generated per run. The timed loop cycles through
   them, so every seed sees the same fixed set however fast the program
   is: [yield_mean] and [served_frac] stay pure functions of the seed. *)
let distinct_requests = function
  | Batch_small -> 12
  | Solve_large | Lp_rounding -> 24
  | Online -> 48

let tenants = 16
let online_shards = 4

type request =
  | Batch of Heuristics.Batch.job array  (** one [solve_batch] call *)
  | Single of Heuristics.Batch.job  (** one [Algorithms.solve ~pool] *)
  | Sim of int  (** one [Sharded.run] with this seed *)

type outcome =
  | Solved of Heuristics.Vp_solver.solution option array
  | Simulated of Simulator.Sharded.result

(* Table-1 point of the paper: cov 0.5 heterogeneous nodes. *)
let table1 ~hosts ~services ~slack rng =
  Workload.Generator.generate ~rng
    {
      Workload.Generator.hosts;
      services;
      cov = 0.5;
      slack;
      cpu_homogeneous = false;
      mem_homogeneous = false;
    }

let slacks = [| 0.3; 0.4; 0.5 |]

(* [tenants] Table-1 tenants with 4 services per host, slack cycling
   0.3/0.4/0.5; [algo t] picks tenant [t]'s algorithm. *)
let tenant_jobs rng ~hosts ~algo =
  Array.init tenants (fun t ->
      let instance =
        table1 ~hosts ~services:(4 * hosts)
          ~slack:slacks.(t mod Array.length slacks)
          (Prng.Rng.split rng)
      in
      { Heuristics.Batch.algo = algo t; instance })

let make_request kind rng i =
  match kind with
  | Batch_small ->
      Batch
        (tenant_jobs rng ~hosts:10 ~algo:(fun _ ->
             Heuristics.Algorithms.metahvplight))
  | Lp_rounding ->
      (* 6 x 24, not Table-1's 10 x 40: one 10 x 40 relaxation takes
         ~0.3 s, too slow for 16 tenants per request and enough requests
         per run. Per-tenant rounding seeds come from the request's
         stream. *)
      Batch
        (tenant_jobs rng ~hosts:6 ~algo:(fun t ->
             let seed = Prng.Rng.int rng 1_000_000 in
             if t mod 2 = 0 then Heuristics.Algorithms.rrnz ~seed
             else Heuristics.Algorithms.rrnd ~seed))
  | Solve_large ->
      Single
        {
          Heuristics.Batch.algo = Heuristics.Algorithms.metahvp;
          instance =
            table1 ~hosts:25 ~services:100
              ~slack:slacks.(i mod Array.length slacks)
              (Prng.Rng.split rng);
        }
  | Online -> Sim (Prng.Rng.int rng 1_000_000_000)

(* Online: heterogeneous 0.4/0.8 quad-core nodes, shuffled by the seed. *)
let online_hosts = 1000

let online_platform rng =
  let big = Array.init online_hosts (fun i -> i mod 2 = 1) in
  Prng.Rng.shuffle rng big;
  Array.mapi
    (fun id big ->
      let c = if big then 0.8 else 0.4 in
      Model.Node.make_cores ~id ~cores:4 ~cpu:c ~mem:c)
    big

let online_config =
  {
    Simulator.Engine.default_config with
    horizon = 8.;
    arrival_rate = 30.;
    mean_lifetime = 30.;
    reallocation_period = 2.;
    max_error = 0.08;
    memory_scale = 0.5;
    placement = Simulator.Policy.Greedy_random;
    algorithm =
      Heuristics.Algorithms.single_greedy Heuristics.Greedy.S7
        Heuristics.Greedy.P4;
  }

let partition = Simulator.Sharded.Capacity_balanced

type inputs = {
  requests : request array;
  platform : Model.Node.t array;  (** online only; empty otherwise *)
  shard_nodes : Model.Node.t array array;  (** [platform] partitioned *)
  instances_generated : int;
}

let generate kind ~seed =
  let rng = Prng.Rng.create ~seed in
  let platform =
    if kind = Online then online_platform (Prng.Rng.split rng) else [||]
  in
  let n = distinct_requests kind in
  let requests = Array.init n (fun i -> make_request kind rng i) in
  let instances_generated =
    match kind with
    | Batch_small | Lp_rounding -> n * tenants
    | Solve_large -> n
    | Online -> 1
  in
  let shard_nodes =
    if kind = Online then
      Simulator.Sharded.partition ~policy:partition ~shards:online_shards
        platform
    else [||]
  in
  { requests; platform; shard_nodes; instances_generated }

let run_sim ?pool ~platform seed =
  Simulator.Sharded.run ?pool ~seed ~partition ~shards:online_shards
    online_config ~platform

let run ~sched ~platform = function
  | Batch jobs -> Solved (Heuristics.Batch.solve_batch ~sched jobs)
  | Single { algo; instance } ->
      Solved [| algo.solve ~pool:(Par.Scheduler.pool sched) instance |]
  | Sim seed ->
      Simulated (run_sim ~pool:(Par.Scheduler.pool sched) ~platform seed)

(* The same request with no pool: back-to-back [algo.solve] calls, or the
   shards one after another — the serial reference. *)
let run_serial ~platform = function
  | Batch jobs ->
      Solved
        (Array.map
           (fun (j : Heuristics.Batch.job) -> j.algo.solve j.instance)
           jobs)
  | Single { algo; instance } -> Solved [| algo.solve instance |]
  | Sim seed -> Simulated (run_sim ~platform seed)

let jobs = function
  | Batch jobs -> jobs
  | Single j -> [| j |]
  | Sim _ -> [||]

let bits_equal a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_solution a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Heuristics.Vp_solver.solution), Some y ->
      x.placement = y.Heuristics.Vp_solver.placement
      && bits_equal x.min_yield y.min_yield
  | _ -> false

let same_outcome a b =
  match (a, b) with
  | Solved a, Solved b ->
      Array.length a = Array.length b && Array.for_all2 same_solution a b
  | Simulated a, Simulated b ->
      compare
        (a.merged, a.per_shard, a.finals)
        (b.merged, b.per_shard, b.finals)
      = 0
  | _ -> false

(* A returned placement must be requirement-feasible and its reported
   minimum yield must be exactly the water-filled one. [eval] times the
   water-filling call. *)
let check_solution ~eval instance = function
  | None -> true
  | Some (s : Heuristics.Vp_solver.solution) -> (
      Model.Placement.is_valid instance s.placement
      && Model.Placement.feasible instance s.placement
      &&
      match
        eval (fun () -> Heuristics.Vp_solver.evaluate instance s.placement)
      with
      | Some e -> bits_equal e.Heuristics.Vp_solver.min_yield s.min_yield
      | None -> false)

(* Every shard's services live at the horizon fit their hosts' memory. *)
let sim_memory_feasible ~shard_nodes (r : Simulator.Sharded.result) =
  Array.length r.finals = Array.length shard_nodes
  && Array.for_all2
       (fun nodes finals ->
         let load = Array.make (Array.length nodes) 0. in
         List.for_all
           (fun (f : Simulator.Engine.final_service) ->
             f.f_node >= 0
             && f.f_node < Array.length nodes
             &&
             (load.(f.f_node) <- load.(f.f_node) +. f.f_mem;
              true))
           finals
         && Array.for_all2
              (fun l (n : Model.Node.t) ->
                let cap =
                  Vec.Vector.get n.capacity.Vec.Epair.aggregate
                    Model.Service.mem_dim
                in
                l <= cap +. (1e-9 *. Float.max 1. cap))
              load nodes)
       shard_nodes r.finals

let check_sim ~shard_nodes (r : Simulator.Sharded.result) =
  let m = r.merged in
  m.admitted + m.rejected = m.arrivals
  && m.mean_min_yield >= 0.
  && m.mean_min_yield <= 1.
  && sim_memory_feasible ~shard_nodes r
