(* Differential lock-down of the multi-tenant batched solve scheduler
   (DESIGN.md §16): [Batch.solve_batch] must return results bit-identical
   to solving the same jobs back-to-back sequentially — same Some/None,
   same placement, same minimum yield to the last bit — at every pool
   size (and so every speculation depth the pool share selects), with
   yield-search and direct algorithms mixed in one request list. Each
   solve owns its probe scratch, so re-running a batch on one scheduler
   and running identically shaped tenants side by side must not change
   any result; and since speculation depth is a pure function of pool
   size and live-request count, round counts are pinned exactly. *)

module Batch = Heuristics.Batch

let with_pool = Par.Pool.with_pool

let gen_instance ~seed ~hosts ~services ~slack =
  Workload.Generator.generate
    ~rng:(Prng.Rng.create ~seed)
    {
      Workload.Generator.hosts;
      services;
      cov = 0.5;
      slack;
      cpu_homogeneous = false;
      mem_homogeneous = false;
    }

let algo ~seed name =
  match Heuristics.Algorithms.by_name ~seed name with
  | Some a -> a
  | None -> Alcotest.failf "unknown algorithm %S" name

(* Mixed tenants: three strategy-set yield searches (Yield_search kind,
   stepped round by round), the greedy sweep and an LP-rounding run
   (Direct kind, one-shot tasks), over instances spanning the tight
   slack=0.1 regime (infeasible for some tenants — the None path) up to
   loose slack=0.6. *)
let jobs =
  let names =
    [| "metahvplight"; "metavp"; "metagreedy"; "rrnz"; "metavp"; "rrnd" |]
  in
  Array.init 9 (fun i ->
      let hosts = 2 + (i mod 3) in
      let services = 4 + (i * 3 mod 9) in
      let slack = [| 0.1; 0.35; 0.6 |].(i mod 3) in
      {
        Batch.algo = algo ~seed:i names.(i mod Array.length names);
        instance = gen_instance ~seed:i ~hosts ~services ~slack;
      })

(* The reference arm: the same tenants solved back-to-back, no pool, no
   scheduler — the legacy sequential path. *)
let sequential =
  lazy (Array.map (fun j -> j.Batch.algo.solve j.Batch.instance) jobs)

let check_solution msg seq bat =
  match (seq, bat) with
  | None, None -> ()
  | ( Some (s : Heuristics.Vp_solver.solution),
      Some (b : Heuristics.Vp_solver.solution) ) ->
      if s.placement <> b.placement then
        Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float s.min_yield <> Int64.bits_of_float b.min_yield
      then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg s.min_yield
          b.min_yield
  | Some _, None -> Alcotest.failf "%s: sequential Some, batched None" msg
  | None, Some _ -> Alcotest.failf "%s: sequential None, batched Some" msg

let check_batch msg results =
  let seq = Lazy.force sequential in
  Alcotest.(check int)
    (msg ^ ": result count")
    (Array.length seq) (Array.length results);
  Array.iteri
    (fun i b ->
      check_solution
        (Printf.sprintf "%s: job %d (%s)" msg i jobs.(i).Batch.algo.name)
        seq.(i) b)
    results

let pool_sizes () =
  (* 1 = the degenerate sequential path; with the 9 mixed jobs every pool
     up to 8 runs at depth 1 until tenants finish and the per-request
     share grows. The env-derived size makes the CI VMALLOC_DOMAINS={1,2}
     matrix leg vary what this suite runs. *)
  let env = min 8 (Par.Pool.domains_from_env ()) in
  List.sort_uniq compare [ 1; 2; 4; 8; env ]

(* The acceptance criterion of the batched scheduler: identical results
   at every pool size, for the mixed batch and for every yield-search job
   as a 1-tenant batch. One scheduler per pool, so later batches run on a
   scheduler earlier ones already used. *)
let test_batched_equals_sequential () =
  Alcotest.(check int)
    "1 tenant on 8 domains searches 4 levels per round" 4
    (Heuristics.Binary_search.depth_for ~pool_size:8 ~occupancy:1);
  let seq = Lazy.force sequential in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          check_batch
            (Printf.sprintf "pool %d" domains)
            (Batch.solve_batch ~sched jobs);
          Array.iteri
            (fun i j ->
              match j.Batch.algo.kind with
              | Heuristics.Algorithms.Direct -> ()
              | Heuristics.Algorithms.Yield_search _ ->
                  check_solution
                    (Printf.sprintf "pool %d, job %d (%s) alone" domains i
                       j.Batch.algo.name)
                    seq.(i)
                    (Batch.solve_batch ~sched [| j |]).(0))
            jobs))
    (pool_sizes ())

(* Two identical batches on one scheduler: nothing the first leaves
   behind may change the second. *)
let test_rerun_batch_identical () =
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      let first = Batch.solve_batch ~sched jobs in
      let second = Batch.solve_batch ~sched jobs in
      Array.iteri
        (fun i b ->
          check_solution
            (Printf.sprintf "rerun: job %d (%s)" i jobs.(i).Batch.algo.name)
            first.(i) b)
        second;
      check_batch "rerun (vs sequential)" second)

(* Two live tenants with identical shapes (same hosts, services and
   dimensions, different demands) probing side by side on every domain:
   the case a scratch shared between solves, or keyed by shape, would
   corrupt. Each must match its own sequential solve. *)
let test_same_shape_tenants () =
  let twins =
    Array.init 2 (fun i ->
        {
          Batch.algo = Heuristics.Algorithms.metahvplight;
          instance =
            gen_instance ~seed:(40 + i) ~hosts:4 ~services:12
              ~slack:[| 0.3; 0.5 |].(i);
        })
  in
  let seq = Array.map (fun j -> j.Batch.algo.solve j.Batch.instance) twins in
  Alcotest.(check bool)
    "twins solve to different placements" true
    (match seq with
    | [| Some a; Some b |] ->
        a.Heuristics.Vp_solver.placement <> b.Heuristics.Vp_solver.placement
    | _ -> false);
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          Array.iteri
            (fun i b ->
              check_solution
                (Printf.sprintf "pool %d, twin %d" domains i)
                seq.(i) b)
            (Batch.solve_batch ~sched twins)))
    (pool_sizes ())

(* Round counts are a pure function of the job list and the pool size.
   16 same-algorithm tenants whose searches all run the full bisection
   take exactly one interleaved round per 16 serial binary-search rounds
   on pools up to 4 (every tenant's share is one domain, so every round
   carries one probe per tenant); and a 1-tenant batch takes exactly the
   rounds of [maximize_par] on the same pool. *)
let counter name =
  Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ()) name

let counted name f =
  let before = counter name in
  let r = f () in
  (r, counter name - before)

let test_round_counts_pinned () =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let tenants =
    Array.init 16 (fun i ->
        {
          Batch.algo = Heuristics.Algorithms.metahvplight;
          instance =
            gen_instance ~seed:(100 + i) ~hosts:4 ~services:12
              ~slack:[| 0.3; 0.4; 0.5 |].(i mod 3);
        })
  in
  let (), serial_rounds =
    counted "binary_search.rounds" (fun () ->
        Array.iter
          (fun j -> ignore (j.Batch.algo.solve j.Batch.instance))
          tenants)
  in
  Alcotest.(check int)
    "every tenant runs the full 16-round search" (16 * 16) serial_rounds;
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          let _, rounds =
            counted "scheduler.rounds_interleaved" (fun () ->
                Batch.solve_batch ~sched tenants)
          in
          Alcotest.(check int)
            (Printf.sprintf "16 tenants at pool %d: serial rounds / 16"
               domains)
            (serial_rounds / 16) rounds;
          let j = tenants.(0) in
          let par_rounds = ref 0 in
          ignore
            (Heuristics.Vp_solver.solve_multi ~pool
               ~on_round:(fun _ -> incr par_rounds)
               Packing.Strategy.hvp_light j.Batch.instance);
          let _, rounds =
            counted "scheduler.rounds_interleaved" (fun () ->
                Batch.solve_batch ~sched [| j |])
          in
          Alcotest.(check int)
            (Printf.sprintf "1 tenant at pool %d: maximize_par rounds"
               domains)
            !par_rounds rounds))
    [ 1; 2; 4; 8 ]

let test_empty_batch () =
  with_pool ~domains:2 (fun pool ->
      let sched = Par.Scheduler.create ~pool in
      Alcotest.(check int)
        "no jobs, no results" 0
        (Array.length (Batch.solve_batch ~sched [||])))

(* End-to-end through the experiment driver: a Table 1 mini-sweep in
   batched mode — every trial of a scenario as one tenant — must print
   the exact report of the plain sequential run at any pool size. *)
let mini_scale =
  {
    Experiments.Scale.small with
    label = "mini";
    table1_hosts = 4;
    table1_services = [ 6 ];
    table1_covs = [ 0.5 ];
    table1_slacks = [ 0.5 ];
    table1_reps = 2;
  }

let test_table1_batched_identical () =
  let sequential =
    Experiments.Table1.report_table1 (Experiments.Table1.run mini_scale)
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          let sched = Par.Scheduler.create ~pool in
          Alcotest.(check string)
            (Printf.sprintf "table1 report identical batched at %d domains"
               domains)
            sequential
            (Experiments.Table1.report_table1
               (Experiments.Table1.run ~sched mini_scale))))
    [ 1; 2; 4 ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("batched = sequential at pools 1/2/4/8",
       test_batched_equals_sequential);
      ("rerun on one scheduler is identical", test_rerun_batch_identical);
      ("empty batch", test_empty_batch);
      ("Table 1 mini-sweep identical batched", test_table1_batched_identical);
      ("same-shape tenants side by side", test_same_shape_tenants);
      ("round counts pinned at every pool", test_round_counts_pinned);
    ]
