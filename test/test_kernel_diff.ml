(* Differential lock-down of the probe-shared packing kernel
   (DESIGN.md §11): solves through the kernel (shared item scratch,
   memoized sort orders and Permutation-Pack item permutations, reset
   bins) must be bit-identical to the naive fresh-allocation path
   reached via ~kernel:false — same Some/None, same placement, same
   yield to the last bit — across random instances, single-strategy
   (FF/BF/PP/CP) and META (VP/HVP/HVPLIGHT) strategy sets, and
   probe-pool sizes 1/2/4/8. *)

module VS = Heuristics.Vp_solver

let with_pool = Par.Pool.with_pool

let single_strategies =
  let open Packing.Strategy in
  let pp flavour = Permutation_pack { flavour; window = None } in
  [
    ("FF",
     { algo = First_fit; item_order = Vec.Metric.(Desc (Scalar Sum));
       bin_order = Vec.Metric.Unsorted; variant = Vp });
    ("BF",
     { algo = Best_fit; item_order = Vec.Metric.(Desc (Scalar Max));
       bin_order = Vec.Metric.Unsorted; variant = Hvp });
    ("PP",
     { algo = pp Packing.Permutation_pack.Permutation;
       item_order = Vec.Metric.(Desc (Scalar Max_ratio));
       bin_order = Vec.Metric.(Asc Lex); variant = Hvp });
    ("CP",
     { algo = pp Packing.Permutation_pack.Choose;
       item_order = Vec.Metric.(Desc (Scalar Max_difference));
       bin_order = Vec.Metric.Unsorted; variant = Vp });
  ]

let meta_sets =
  [
    ("METAVP", Packing.Strategy.vp_all);
    ("METAHVPLIGHT", Packing.Strategy.hvp_light);
  ]

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

(* Easy, mid, and hard-to-infeasible regimes, so the sweep crosses the
   feasible-at-1, interior-optimum, and infeasible-at-0 fast paths. *)
let corpus =
  let slacks = [| 0.05; 0.2; 0.35; 0.5; 0.7; 0.9 |] in
  List.init 12 (fun seed ->
      let hosts = 2 + (seed mod 5) in
      let services = 3 + (seed * 5 mod 17) in
      let slack = slacks.(seed mod Array.length slacks) in
      (seed, gen_instance ~seed ~hosts ~services ~slack))

let check_identical msg kernel naive =
  match (kernel, naive) with
  | None, None -> ()
  | Some (a : VS.solution), Some (b : VS.solution) ->
      if a.placement <> b.placement then
        Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float a.min_yield <> Int64.bits_of_float b.min_yield
      then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg a.min_yield
          b.min_yield
  | Some _, None -> Alcotest.failf "%s: kernel Some, naive None" msg
  | None, Some _ -> Alcotest.failf "%s: kernel None, naive Some" msg

let pool_sizes = [ 1; 2; 4; 8 ]

(* A single-strategy probe has nothing to run in parallel, so these
   solves take no pool. *)
let test_kernel_vs_naive_singles () =
  List.iter
    (fun (seed, inst) ->
      List.iter
        (fun (sname, strategy) ->
          check_identical
            (Printf.sprintf "seed %d, %s" seed sname)
            (VS.solve ~kernel:true strategy inst)
            (VS.solve ~kernel:false strategy inst))
        single_strategies)
    corpus

(* The pooled kernel against the sequential naive reference: the pool
   spreads each probe's strategy attempts over domains, the reference
   scans them in order on one. *)
let test_kernel_vs_naive_meta () =
  let naive =
    List.map
      (fun (_, inst) ->
        List.map
          (fun (_, strategies) -> VS.solve_multi ~kernel:false strategies inst)
          meta_sets)
      corpus
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter2
            (fun (seed, inst) naive ->
              List.iter2
                (fun (mname, strategies) naive ->
                  check_identical
                    (Printf.sprintf "seed %d, %s, %d domains" seed mname
                       domains)
                    (VS.solve_multi ~pool ~kernel:true strategies inst)
                    naive)
                meta_sets naive)
            corpus naive))
    pool_sizes

(* The full 253-strategy METAHVP set is the expensive one; lock it down on
   a few instances spanning the three regimes, at every pool size. *)
let test_kernel_vs_naive_metahvp () =
  let picks =
    [
      (0, gen_instance ~seed:0 ~hosts:4 ~services:10 ~slack:0.05);
      (1, gen_instance ~seed:1 ~hosts:5 ~services:14 ~slack:0.35);
      (2, gen_instance ~seed:2 ~hosts:3 ~services:8 ~slack:0.9);
    ]
  in
  let naive =
    List.map
      (fun (_, inst) ->
        VS.solve_multi ~kernel:false Packing.Strategy.hvp_all inst)
      picks
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter2
            (fun (seed, inst) naive ->
              check_identical
                (Printf.sprintf "seed %d, METAHVP, %d domains" seed domains)
                (VS.solve_multi ~pool ~kernel:true Packing.Strategy.hvp_all
                   inst)
                naive)
            picks naive))
    pool_sizes

let counters_after solve =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.Metrics.set_enabled false;
      Obs.Metrics.reset ();
      Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  solve ();
  Obs.Metrics.set_enabled false;
  Obs.Metrics.snapshot ()

(* The kernel is observable only through its counters: the same attempts
   and probes as the naive path, plus sort-memo hits the naive path never
   records. *)
let test_escape_hatch_and_counters () =
  let inst = gen_instance ~seed:7 ~hosts:5 ~services:14 ~slack:0.35 in
  let solve kernel () =
    ignore (VS.solve_multi ~kernel Packing.Strategy.hvp_light inst)
  in
  let on = counters_after (solve true) in
  let off = counters_after (solve false) in
  let v snap name = Obs.Metrics.Snapshot.counter_value snap name in
  Alcotest.(check bool) "kernel solve hits the sort memo" true
    (v on "vp_solver.items_cache_hits" > 0);
  Alcotest.(check int) "naive solve never touches the sort memo" 0
    (v off "vp_solver.items_cache_hits");
  Alcotest.(check int) "kernel attempts = naive attempts"
    (v off "vp_solver.strategy_attempts")
    (v on "vp_solver.strategy_attempts");
  Alcotest.(check int) "same probe count either way"
    (v off "vp_solver.oracle_calls")
    (v on "vp_solver.oracle_calls")

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("kernel = naive on FF/BF/PP/CP solves", test_kernel_vs_naive_singles);
      ("kernel = naive on METAVP/METAHVPLIGHT", test_kernel_vs_naive_meta);
      ("kernel = naive on METAHVP", test_kernel_vs_naive_metahvp);
      ("escape hatch + kernel counters", test_escape_hatch_and_counters);
    ]
