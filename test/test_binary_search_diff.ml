(* Differential lock-down of the speculative k-probe yield search:
   [Binary_search.maximize_par] must return bit-identical results to
   [maximize] — same Some/None, same placement, same yield to the last
   bit — for real packing oracles at every pool size, including the
   infeasible-at-0 and feasible-at-1 fast paths; and it must win its
   speed-up in oracle *rounds* without ever needing more rounds than the
   sequential search needs probes. *)

module BS = Heuristics.Binary_search

let with_pool = Par.Pool.with_pool

(* One packing oracle per base algorithm of the paper: FF, BF, PP, CP. *)
let oracle_strategies =
  let open Packing.Strategy in
  let pp flavour =
    Permutation_pack { flavour; window = None }
  in
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

(* ~50 instances spanning easy, mid, and hard-to-infeasible (slack 0.05)
   regimes, plus the paper's Fig. 1 instance — whose lone service runs at
   full performance on node B, pinning the feasible-at-1 fast path on real
   packing oracles (the generator never produces slack that loose). *)
let instance_fig1 =
  Model.Instance.v
    ~nodes:
      [|
        Model.Node.make_cores ~id:0 ~cores:4 ~cpu:3.2 ~mem:1.0;
        Model.Node.make_cores ~id:1 ~cores:2 ~cpu:2.0 ~mem:0.5;
      |]
    ~services:
      [|
        Model.Service.make_2d ~id:0 ~cpu_req:(0.5, 1.0) ~mem_req:0.5
          ~cpu_need:(0.5, 1.0) ();
      |]

let corpus =
  let slacks = [| 0.05; 0.2; 0.35; 0.5; 0.7; 0.9 |] in
  (-1, instance_fig1)
  :: List.init 50 (fun seed ->
         let hosts = 2 + (seed mod 5) in
         let services = 3 + (seed * 3 mod 16) in
         let slack = slacks.(seed mod Array.length slacks) in
         (seed, gen_instance ~seed ~hosts ~services ~slack))

let check_identical msg seq par =
  match (seq, par) with
  | None, None -> ()
  | Some (p1, y1), Some (p2, y2) ->
      if p1 <> p2 then Alcotest.failf "%s: placements differ" msg;
      if Int64.bits_of_float y1 <> Int64.bits_of_float y2 then
        Alcotest.failf "%s: yields differ (%.17g vs %.17g)" msg y1 y2
  | Some _, None -> Alcotest.failf "%s: sequential Some, parallel None" msg
  | None, Some _ -> Alcotest.failf "%s: sequential None, parallel Some" msg

let pool_sizes () =
  (* 1 = the degenerate sequential path; 2 and 4 exercise speculation
     depths 2 and 3. The env-derived size makes the CI
     VMALLOC_DOMAINS={1,2} matrix leg vary what this suite runs. *)
  let env = min 4 (Par.Pool.domains_from_env ()) in
  List.sort_uniq compare [ 1; 2; 4; env ]

let test_differential_packing_oracles () =
  let feasible = ref 0 and infeasible = ref 0 and at_one = ref 0 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun (seed, inst) ->
              List.iter
                (fun (oname, strategy) ->
                  let oracle = Heuristics.Vp_solver.pack_at_yield strategy inst in
                  let seq = BS.maximize oracle in
                  let par = BS.maximize_par ~pool oracle in
                  (match seq with
                  | None -> incr infeasible
                  | Some (_, y) ->
                      incr feasible;
                      if y = 1. then incr at_one);
                  check_identical
                    (Printf.sprintf "seed %d, %s oracle, %d domains" seed
                       oname domains)
                    seq par)
                oracle_strategies)
            corpus))
    (pool_sizes ());
  (* The sweep must genuinely cover all three outcome classes. *)
  Alcotest.(check bool) "sweep hit feasible instances" true (!feasible > 0);
  Alcotest.(check bool) "sweep hit infeasible-at-0 instances" true
    (!infeasible > 0);
  Alcotest.(check bool) "sweep hit feasible-at-1 instances" true (!at_one > 0)

(* The two fast paths, pinned deterministically (no reliance on what the
   generator happens to produce), plus non-default tolerances. *)
let test_differential_fast_paths () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          check_identical "always-feasible oracle"
            (BS.maximize (fun y -> Some y))
            (BS.maximize_par ~pool (fun y -> Some y));
          check_identical "never-feasible oracle"
            (BS.maximize (fun _ -> None))
            (BS.maximize_par ~pool (fun _ -> None));
          List.iter
            (fun tolerance ->
              let target = 0.37 in
              let oracle y = if y <= target then Some y else None in
              check_identical
                (Printf.sprintf "threshold oracle, tolerance %g" tolerance)
                (BS.maximize ~tolerance oracle)
                (BS.maximize_par ~tolerance ~pool oracle))
            (* 0. exercises the non-positive clamp on both sides. *)
            [ 1e-2; 1e-3; 3e-4; 0. ]))
    (pool_sizes ())

(* Exact announced-probe sequences, pinned point by point. Oracle feasible
   iff y <= 0.3 at tolerance 0.2 — wide enough to trace by hand:

   sequential   [1]; [0]; [0.5]; [0.25]; [0.375]        (bracket 0.25..0.375)
   k=2 (n=3)    [1]; [0]; [0.5 0.25 0.75]; [0.375]
   k=4 (n=7)    [1]; [0]; [0.5 0.25 0.75 0.125 0.375 0.625 0.875]

   The speculative batches are the next bisection levels below the current
   bracket in heap order (children of i at 2i+1/2i+2); the on-path points
   (0.5, 0.25, 0.375) appear bit-identically inside them. After the k=2
   first fan resolves, the bracket is 0.25..0.5 — one bisection level from
   the tolerance — so the remaining-levels cap shrinks the second fan to
   the single on-path point instead of speculating past the stop. *)
let show_rounds rounds =
  String.concat "; "
    (List.map
       (fun pts ->
         "["
         ^ String.concat " "
             (List.map (Printf.sprintf "%.17g") (Array.to_list pts))
         ^ "]")
       rounds)

let record f =
  let rounds = ref [] in
  ignore (f (fun pts -> rounds := Array.copy pts :: !rounds));
  show_rounds (List.rev !rounds)

let test_probe_sequences () =
  let tolerance = 0.2 in
  let oracle y = if y <= 0.3 then Some y else None in
  let expect rounds = show_rounds (List.map Array.of_list rounds) in
  let seq_expected = expect [ [ 1. ]; [ 0. ]; [ 0.5 ]; [ 0.25 ]; [ 0.375 ] ] in
  Alcotest.(check string) "sequential probe sequence" seq_expected
    (record (fun on_round -> BS.maximize ~tolerance ~on_round oracle));
  let par ~domains on_round =
    with_pool ~domains (fun pool ->
        BS.maximize_par ~tolerance ~pool ~on_round oracle)
  in
  Alcotest.(check string) "pool size 1 degenerates to the sequential sequence"
    seq_expected
    (record (fun on_round -> par ~domains:1 on_round));
  Alcotest.(check string)
    "pool size 2: 3-point fan, then a capped single-point round"
    (expect [ [ 1. ]; [ 0. ]; [ 0.5; 0.25; 0.75 ]; [ 0.375 ] ])
    (record (fun on_round -> par ~domains:2 on_round));
  Alcotest.(check string) "pool size 4: one 7-point speculative round"
    (expect
       [ [ 1. ]; [ 0. ];
         [ 0.5; 0.25; 0.75; 0.125; 0.375; 0.625; 0.875 ] ])
    (record (fun on_round -> par ~domains:4 on_round))

(* The fast paths announce exactly the endpoint probes — [|1.|] alone when
   feasible at 1, [|1.|]; [|0.|] when infeasible at 0 — identically on both
   searches at every pool size. *)
let test_probe_sequence_endpoints () =
  let feasible_at_1 = "[1]" and infeasible_at_0 = "[1]; [0]" in
  Alcotest.(check string) "maximize feasible-at-1" feasible_at_1
    (record (fun on_round -> BS.maximize ~on_round (fun y -> Some y)));
  Alcotest.(check string) "maximize infeasible-at-0" infeasible_at_0
    (record (fun on_round -> BS.maximize ~on_round (fun _ -> None)));
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          Alcotest.(check string)
            (Printf.sprintf "maximize_par feasible-at-1 (k=%d)" domains)
            feasible_at_1
            (record (fun on_round ->
                 BS.maximize_par ~pool ~on_round (fun y -> Some y)));
          Alcotest.(check string)
            (Printf.sprintf "maximize_par infeasible-at-0 (k=%d)" domains)
            infeasible_at_0
            (record (fun on_round ->
                 BS.maximize_par ~pool ~on_round (fun _ -> None)))))
    [ 1; 2; 4 ]

(* Round/probe regression: with a k-domain pool each Pool.map round resolves
   ⌈log₂(k+1)⌉ bisection levels, so the number of oracle rounds (the
   latency-critical serial steps; counted via [on_round]) must never exceed
   the sequential probe count and must meet the ⌈log_{k+1}(1/tol)⌉ + 2
   bound. The oracle call counter additionally checks the speculative
   fan-out stays within one tree per round: per-round batches have at most
   2k - 1 probes. *)

let round_bound ~k ~tolerance =
  let inv = 1. /. tolerance in
  let rec go rounds reach =
    if reach >= inv then rounds else go (rounds + 1) (reach *. float_of_int (k + 1))
  in
  go 0 1. + 2

let test_round_regression () =
  let tolerances = [ 1e-2; 1e-3; BS.default_tolerance ] in
  let target = 0.37 in
  List.iter
    (fun k ->
      with_pool ~domains:k (fun pool ->
          List.iter
            (fun tolerance ->
              let calls = ref 0 in
              let oracle y =
                incr calls;
                if y <= target then Some y else None
              in
              let seq_probes = ref 0 in
              ignore
                (BS.maximize ~tolerance
                   ~on_round:(fun _ -> incr seq_probes)
                   oracle);
              Alcotest.(check int)
                (Printf.sprintf "sequential rounds = oracle calls (tol %g)"
                   tolerance)
                !calls !seq_probes;
              let par_rounds = ref 0 in
              let max_batch = ref 0 in
              ignore
                (BS.maximize_par ~tolerance ~pool
                   ~on_round:(fun batch ->
                     incr par_rounds;
                     max_batch := max !max_batch (Array.length batch))
                   oracle);
              let msg fmt =
                Printf.ksprintf
                  (fun s -> Printf.sprintf "%s (k=%d, tol %g)" s k tolerance)
                  fmt
              in
              Alcotest.(check bool)
                (msg "par rounds %d <= seq probes %d" !par_rounds !seq_probes)
                true
                (!par_rounds <= !seq_probes);
              Alcotest.(check bool)
                (msg "par rounds %d <= bound %d" !par_rounds
                   (round_bound ~k ~tolerance))
                true
                (!par_rounds <= round_bound ~k ~tolerance);
              Alcotest.(check bool)
                (msg "batch size %d <= 2k-1" !max_batch)
                true
                (!max_batch <= max 1 ((2 * k) - 1)))
            tolerances))
    [ 1; 2; 4 ]

(* Forced speculation depths: the search state machine driven at any
   fixed depth must leave the result bit-identical to the sequential
   search — depth only trades probes for rounds. [maximize_par] fixes its
   own depth, so this drives [BS.plan] directly with the same pool round
   [maximize_par] runs. Swept over real packing oracles on a corpus slice
   so the on-path points exercise genuine bracket updates, not just the
   synthetic threshold. *)
let maximize_at_depth ~pool ~depth oracle =
  let p = BS.plan ~depth:(fun ~remaining:_ -> depth) () in
  let rec drive prev =
    match BS.plan_next p ~prev with
    | None -> BS.plan_result p
    | Some points -> drive (Par.Pool.map pool points oracle)
  in
  drive [||]

let test_forced_depth_differential () =
  let slice =
    List.filteri (fun i _ -> i mod 5 = 0) corpus
  in
  List.iter
    (fun domains ->
      with_pool ~domains (fun pool ->
          List.iter
            (fun depth ->
              List.iter
                (fun (seed, inst) ->
                  List.iter
                    (fun (oname, strategy) ->
                      let oracle =
                        Heuristics.Vp_solver.pack_at_yield strategy inst
                      in
                      check_identical
                        (Printf.sprintf
                           "seed %d, %s oracle, %d domains, depth %d" seed
                           oname domains depth)
                        (BS.maximize oracle)
                        (maximize_at_depth ~pool ~depth oracle))
                    oracle_strategies)
                slice)
            [ 1; 2; 3; 5 ]))
    (pool_sizes ())

(* Probe accounting: the parallel search calls the oracle exactly
   [sequential probes + speculative waste] times — every extra call is an
   off-path speculative point, none are silently dropped or repeated. *)
let test_probe_accounting () =
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was_enabled)
  @@ fun () ->
  let target = 0.37 in
  let waste () =
    Obs.Metrics.Snapshot.counter_value (Obs.Metrics.snapshot ())
      "binary_search.speculative_waste"
  in
  List.iter
    (fun k ->
      with_pool ~domains:k (fun pool ->
          List.iter
            (fun tolerance ->
              let seq_calls = ref 0 in
              ignore
                (BS.maximize ~tolerance (fun y ->
                     incr seq_calls;
                     if y <= target then Some y else None));
              (* Pool domains call the oracle concurrently: count
                 atomically, or increments get lost. *)
              let par_calls = Atomic.make 0 in
              let waste0 = waste () in
              ignore
                (BS.maximize_par ~tolerance ~pool (fun y ->
                     Atomic.incr par_calls;
                     if y <= target then Some y else None));
              Alcotest.(check int)
                (Printf.sprintf
                   "par calls = seq calls + waste (k=%d, tol %g)" k tolerance)
                (!seq_calls + (waste () - waste0))
                (Atomic.get par_calls))
            [ 1e-2; 1e-3; BS.default_tolerance ]))
    [ 1; 2; 4 ]

(* The same regression on a real packing search end-to-end: METAHVPLIGHT's
   multi-strategy oracle on an instance whose optimum lies strictly inside
   (0, 1), so the full bisection runs. *)
let test_round_regression_packing () =
  let inst = gen_instance ~seed:7 ~hosts:5 ~services:14 ~slack:0.35 in
  let strategies = Packing.Strategy.hvp_light in
  let seq_probes = ref 0 in
  let seq =
    Heuristics.Vp_solver.solve_multi
      ~on_round:(fun _ -> incr seq_probes)
      strategies inst
  in
  (match seq with
  | Some sol when sol.min_yield > 0. && sol.min_yield < 1. -> ()
  | Some _ -> Alcotest.fail "expected an interior optimum (fast path hit)"
  | None -> Alcotest.fail "expected a feasible instance");
  List.iter
    (fun k ->
      with_pool ~domains:k (fun pool ->
          let par_rounds = ref 0 in
          let par =
            Heuristics.Vp_solver.solve_multi ~pool
              ~on_round:(fun _ -> incr par_rounds)
              strategies inst
          in
          (match (seq, par) with
          | Some a, Some b ->
              Alcotest.(check bool)
                (Printf.sprintf "same placement (k=%d)" k)
                true
                (a.placement = b.placement
                && Int64.bits_of_float a.min_yield
                   = Int64.bits_of_float b.min_yield)
          | _ -> Alcotest.fail "Some/None disagreement");
          Alcotest.(check bool)
            (Printf.sprintf "METAHVPLIGHT rounds %d <= seq probes %d (k=%d)"
               !par_rounds !seq_probes k)
            true
            (!par_rounds <= !seq_probes);
          Alcotest.(check bool)
            (Printf.sprintf "METAHVPLIGHT rounds %d within bound %d (k=%d)"
               !par_rounds
               (round_bound ~k ~tolerance:BS.default_tolerance)
               k)
            true
            (!par_rounds <= round_bound ~k ~tolerance:BS.default_tolerance))
        )
    [ 2; 4 ]

(* Pinned round counts on the mid-size Table-1 corpus point (10 hosts x 40
   services, CoV 0.5, slack 0.4): the sequential search takes 16 probes for
   each multi-strategy algorithm, and speculation on a 2-domain pool cuts
   that to the pinned round count with a bit-identical answer. A change
   that costs the pooled search rounds fails here. *)
let test_round_counts_corpus_point () =
  let inst =
    Experiments.Corpus.instance
      {
        Experiments.Corpus.hosts = 10;
        services = 40;
        cov = 0.5;
        slack = 0.4;
        cpu_homogeneous = false;
        mem_homogeneous = false;
        rep = 0;
      }
  in
  with_pool ~domains:2 @@ fun pool ->
  List.iter
    (fun (name, strategies, pooled) ->
      let solve ?pool () =
        let rounds = ref 0 in
        let sol =
          Heuristics.Vp_solver.solve_multi ?pool
            ~on_round:(fun _ -> incr rounds)
            strategies inst
        in
        (sol, !rounds)
      in
      let seq, seq_rounds = solve () in
      let par, par_rounds = solve ~pool () in
      Alcotest.(check int) (name ^ ": sequential probes") 16 seq_rounds;
      Alcotest.(check int) (name ^ ": rounds at pool 2") pooled par_rounds;
      match (seq, par) with
      | Some a, Some b ->
          Alcotest.(check bool) (name ^ ": same solution at pool 2") true
            (a.placement = b.placement
            && Int64.bits_of_float a.min_yield
               = Int64.bits_of_float b.min_yield)
      | _ -> Alcotest.fail (name ^ ": expected a feasible solution"))
    [
      ("METAVP", Packing.Strategy.vp_all, 9);
      ("METAHVP", Packing.Strategy.hvp_all, 9);
      ("METAHVPLIGHT", Packing.Strategy.hvp_light, 9);
    ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("maximize_par = maximize on FF/BF/PP/CP oracles",
       test_differential_packing_oracles);
      ("maximize_par fast paths and tolerances", test_differential_fast_paths);
      ("exact announced probe sequences", test_probe_sequences);
      ("endpoint probe announcements", test_probe_sequence_endpoints);
      ("forced depths stay bit-identical", test_forced_depth_differential);
      ("probe accounting: par = seq + waste", test_probe_accounting);
      ("round count: bound and <= sequential probes", test_round_regression);
      ("round count on a packing search", test_round_regression_packing);
      ("round counts pinned on a corpus point", test_round_counts_corpus_point);
    ]
