(* lib/obs lock-down: the disabled path records nothing, enabled counters
   and histograms total correctly, Pool.map's task-sink merge keeps merged
   snapshots byte-identical at any domain count (including a real Table 1
   sweep), the six algorithms' counter snapshots on one corpus point are
   pinned exactly, and the span tracer round-trips through its Chrome JSON
   export. *)

(* Every test toggles the global flag, so save/restore it — the rest of
   the suite must keep running under whatever VMALLOC_OBS selected. *)
let with_enabled v f =
  let prev = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled v;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled prev) f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_disabled_noop () =
  with_enabled false @@ fun () ->
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.disabled" in
  let h = Obs.Metrics.histogram "test.obs.disabled_hist" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  Obs.Metrics.observe h 7;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter stayed zero" 0
    (Obs.Metrics.Snapshot.counter_value snap "test.obs.disabled");
  Alcotest.(check bool) "histogram stayed empty" false
    (contains (Obs.Metrics.Snapshot.render snap) "test.obs.disabled_hist")

let test_counters_and_histograms () =
  with_enabled true @@ fun () ->
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 41;
  let h = Obs.Metrics.histogram "test.obs.hist" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 900 ];
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "counter total" 42
    (Obs.Metrics.Snapshot.counter_value snap "test.obs.counter");
  let rendered = Obs.Metrics.Snapshot.render snap in
  (* 0 -> bucket "0"; 1 -> "1"; 2,3 -> "2-3"; 900 -> "512-1023". *)
  Alcotest.(check bool) "histogram line" true
    (contains rendered "test.obs.hist count=5 sum=906 [0:1 1:1 2-3:2 512-1023:1]");
  let json = Obs.Metrics.Snapshot.to_json snap in
  Alcotest.(check bool) "counter in JSON" true
    (contains json "\"test.obs.counter\": 42");
  Alcotest.(check bool) "histogram in JSON" true
    (contains json "\"test.obs.hist\": {\"count\": 5, \"sum\": 906");
  Obs.Metrics.reset ();
  let snap' = Obs.Metrics.snapshot () in
  Alcotest.(check int) "reset zeroes the counter" 0
    (Obs.Metrics.Snapshot.counter_value snap' "test.obs.counter");
  Alcotest.(check bool) "reset empties the histogram" false
    (contains (Obs.Metrics.Snapshot.render snap') "test.obs.hist")

(* Pool.map installs a fresh sink per task and merges the task sinks in
   task-input order, so a merged snapshot is byte-identical whatever the
   pool size — even though the tasks themselves land on different domains. *)
let test_pool_merge_domain_invariant () =
  with_enabled true @@ fun () ->
  let c = Obs.Metrics.counter "test.obs.pool" in
  let h = Obs.Metrics.histogram "test.obs.pool_hist" in
  let work i =
    Obs.Metrics.add c (i + 1);
    Obs.Metrics.observe h i;
    i
  in
  let run domains =
    Obs.Metrics.reset ();
    Par.Pool.with_pool ~domains (fun pool ->
        ignore (Par.Pool.map pool (Array.init 20 Fun.id) work));
    let snap = Obs.Metrics.snapshot () in
    ( Obs.Metrics.Snapshot.render snap,
      Obs.Metrics.Snapshot.counter_value snap "test.obs.pool" )
  in
  let r1, total1 = run 1 in
  let r2, total2 = run 2 in
  let r4, total4 = run 4 in
  (* 1 + 2 + ... + 20 *)
  Alcotest.(check int) "total at 1 domain" 210 total1;
  Alcotest.(check int) "total at 2 domains" 210 total2;
  Alcotest.(check int) "total at 4 domains" 210 total4;
  Alcotest.(check string) "render: 1 vs 2 domains" r1 r2;
  Alcotest.(check string) "render: 1 vs 4 domains" r1 r4

(* The acceptance criterion end-to-end: a (tiny) Table 1 sweep with metrics
   on produces byte-identical merged counter snapshots at VMALLOC_DOMAINS
   1, 2, and 4. Every instrumented layer fires here — binary search,
   vp_solver, packing, greedy, the trial counter. *)
let test_table1_snapshot_domain_invariant () =
  with_enabled true @@ fun () ->
  let scale =
    {
      Experiments.Scale.small with
      table1_hosts = 4;
      table1_services = [ 6 ];
      table1_covs = [ 0.5 ];
      table1_slacks = [ 0.4 ];
      table1_reps = 2;
    }
  in
  let run domains =
    Obs.Metrics.reset ();
    (if domains = 1 then ignore (Experiments.Table1.run scale)
     else
       Par.Pool.with_pool ~domains (fun pool ->
           ignore (Experiments.Table1.run ~pool scale)));
    let snap = Obs.Metrics.snapshot () in
    ( Obs.Metrics.Snapshot.render snap,
      Obs.Metrics.Snapshot.counter_value snap "experiments.table1.trials" )
  in
  let r1, trials1 = run 1 in
  let r2, trials2 = run 2 in
  let r4, trials4 = run 4 in
  (* 2 instances x 5 major algorithms. *)
  Alcotest.(check int) "trials counted (1 domain)" 10 trials1;
  Alcotest.(check int) "trials counted (2 domains)" 10 trials2;
  Alcotest.(check int) "trials counted (4 domains)" 10 trials4;
  Alcotest.(check bool) "solver layers fired" true
    (contains r1 "binary_search.rounds" && contains r1 "packing.placements"
    && contains r1 "greedy.candidate_evals");
  Alcotest.(check string) "snapshot: 1 vs 2 domains" r1 r2;
  Alcotest.(check string) "snapshot: 1 vs 4 domains" r1 r4

(* Per-algorithm operation counts on the mid-size Table-1 corpus point
   (10 hosts x 40 services, CoV 0.5, slack 0.4), solved sequentially:
   every counter the solvers emit is pinned exactly, so a change that
   makes a solver examine more bins, try more strategies, call the oracle
   more often or take more search rounds fails here. Regenerate a golden
   only for a change that means to move these counts, and say why. *)
let corpus_point =
  lazy
    (Experiments.Corpus.instance
       {
         Experiments.Corpus.hosts = 10;
         services = 40;
         cov = 0.5;
         slack = 0.4;
         cpu_homogeneous = false;
         mem_homogeneous = false;
         rep = 0;
       })

let algorithm_snapshots =
  [
    ( "RRND",
      "simplex.bland_switches 1\n\
      simplex.degenerate_pivots 511\n\
      simplex.ft_updates 1209\n\
      simplex.lu_fill_in 1028\n\
      simplex.lu_flops 8012\n\
      simplex.phase1_iterations 105\n\
      simplex.pivots 1209\n\
      simplex.refactorizations 12\n" );
    ( "RRNZ",
      "simplex.bland_switches 1\n\
      simplex.degenerate_pivots 511\n\
      simplex.ft_updates 1209\n\
      simplex.lu_fill_in 1028\n\
      simplex.lu_flops 8012\n\
      simplex.phase1_iterations 105\n\
      simplex.pivots 1209\n\
      simplex.refactorizations 12\n" );
    ( "METAGREEDY",
      "greedy.candidate_evals 19600\n\
      greedy.placements 1960\n" );
    ( "METAVP",
      "binary_search.probes 16\n\
      binary_search.rounds 16\n\
      packing.bins_examined 35549\n\
      packing.perm_keys_tried 43494\n\
      packing.placement_attempts 7652\n\
      packing.placements 6860\n\
      vp_solver.items_cache_hits 132\n\
      vp_solver.oracle_calls 16\n\
      vp_solver.oracle_feasible 10\n\
      vp_solver.strategy_attempts 208\n\
      vp_solver.win.VP-FF(NONE items) 10\n\
      vp_solver.strategies_per_win count=10 sum=10 [1:10]\n" );
    ( "METAHVP",
      "binary_search.probes 16\n\
      binary_search.rounds 16\n\
      packing.bins_examined 152831\n\
      packing.perm_keys_tried 519513\n\
      packing.placement_attempts 60453\n\
      packing.placements 52395\n\
      vp_solver.items_cache_hits 1452\n\
      vp_solver.oracle_calls 16\n\
      vp_solver.oracle_feasible 10\n\
      vp_solver.strategy_attempts 1534\n\
      vp_solver.win.HVP-BF(DMAX items) 3\n\
      vp_solver.win.HVP-BF(NONE items) 7\n\
      vp_solver.strategies_per_win count=10 sum=16 [1:7 2-3:3]\n" );
    ( "METAHVPLIGHT",
      "binary_search.probes 16\n\
      binary_search.rounds 16\n\
      packing.bins_examined 47377\n\
      packing.perm_keys_tried 127689\n\
      packing.placement_attempts 14098\n\
      packing.placements 12226\n\
      vp_solver.items_cache_hits 336\n\
      vp_solver.oracle_calls 16\n\
      vp_solver.oracle_feasible 10\n\
      vp_solver.strategy_attempts 370\n\
      vp_solver.win.HVP-BF(DMAX items) 10\n\
      vp_solver.strategies_per_win count=10 sum=10 [1:10]\n" );
  ]

let test_algorithm_snapshots_pinned () =
  with_enabled true @@ fun () ->
  let inst = Lazy.force corpus_point in
  let algorithms =
    Heuristics.Algorithms.majors ~seed:1 @ [ Heuristics.Algorithms.metahvplight ]
  in
  Alcotest.(check (list string))
    "algorithm set" (List.map fst algorithm_snapshots)
    (List.map (fun (a : Heuristics.Algorithms.t) -> a.name) algorithms);
  List.iter2
    (fun (a : Heuristics.Algorithms.t) (_, golden) ->
      Obs.Metrics.reset ();
      ignore (a.solve inst);
      Alcotest.(check string)
        (a.name ^ " counter snapshot")
        golden
        (Obs.Metrics.Snapshot.render (Obs.Metrics.snapshot ())))
    algorithms algorithm_snapshots;
  Obs.Metrics.reset ()

let test_trace_spans () =
  Obs.Trace.stop ();
  Obs.Trace.reset ();
  (* Disabled: span runs the thunk, records nothing. *)
  Alcotest.(check int) "disabled span passes through" 7
    (Obs.Trace.span "dark" (fun () -> 7));
  Alcotest.(check int) "nothing captured while disabled" 0
    (Obs.Trace.event_count ());
  Obs.Trace.start ();
  Fun.protect ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.reset ())
  @@ fun () ->
  let v =
    Obs.Trace.span "outer" ~args:[ ("k", "v") ] (fun () ->
        Obs.Trace.instant "mark";
        Obs.Trace.span "inner" (fun () -> 42))
  in
  Alcotest.(check int) "span returns its thunk's value" 42 v;
  (* Spans record on exceptions too. *)
  (try Obs.Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "outer + instant + inner + boom" 4
    (Obs.Trace.event_count ());
  let json = Obs.Trace.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "JSON has %s" needle) true
        (contains json needle))
    [
      "\"traceEvents\"";
      "\"displayTimeUnit\": \"ms\"";
      "\"name\": \"outer\"";
      "\"ph\": \"X\"";
      "\"ph\": \"i\"";
      "\"k\": \"v\"";
    ]

(* Busy-wait until the µs wall clock ticks, so every span that wraps it
   has a strictly positive duration — what the interval-nesting fold
   relies on to separate parents from the children recorded at (almost)
   the same instant. *)
let spin () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () <= t0 do () done

let with_trace f =
  Obs.Trace.stop ();
  Obs.Trace.reset ();
  Obs.Trace.start ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.stop ();
      Obs.Trace.reset ())
    f

let find_agg label aggs =
  match
    List.find_opt (fun (a : Obs.Trace.agg) -> a.label = label) aggs
  with
  | Some a -> a
  | None -> Alcotest.failf "no aggregate for span %S" label

(* Self time is the span's duration minus its direct children's: with one
   parent over two leaf children the arithmetic is exact, and leaves keep
   self = total. *)
let test_trace_self_time () =
  with_trace @@ fun () ->
  Obs.Trace.span "outer" (fun () ->
      Obs.Trace.span "a" spin;
      Obs.Trace.span "b" spin;
      spin ());
  let aggs = Obs.Trace.aggregate () in
  let outer = find_agg "outer" aggs in
  let a = find_agg "a" aggs in
  let b = find_agg "b" aggs in
  Alcotest.(check int) "one outer call" 1 outer.calls;
  Alcotest.(check bool) "all durations positive" true
    (outer.total_us > 0. && a.total_us > 0. && b.total_us > 0.);
  Alcotest.(check bool) "children fit inside the parent" true
    (outer.total_us >= a.total_us +. b.total_us);
  Alcotest.(check (float 1e-6)) "outer self = total - children"
    (outer.total_us -. a.total_us -. b.total_us)
    outer.self_us;
  Alcotest.(check (float 1e-9)) "leaf self = leaf total" a.total_us a.self_us;
  Alcotest.(check string) "folded call stacks"
    "outer 1\nouter;a 1\nouter;b 1\n"
    (Obs.Trace.to_folded ~weight:Obs.Trace.Calls ())

let test_trace_nesting () =
  with_trace @@ fun () ->
  Obs.Trace.span "l1" (fun () ->
      Obs.Trace.span "l2" (fun () -> Obs.Trace.span "l3" spin);
      Obs.Trace.span "l2" (fun () -> Obs.Trace.span "l3" spin));
  Alcotest.(check string) "three-level folded stacks"
    "l1 1\nl1;l2 2\nl1;l2;l3 2\n"
    (Obs.Trace.to_folded ~weight:Obs.Trace.Calls ());
  let aggs = Obs.Trace.aggregate () in
  Alcotest.(check int) "l2 called twice" 2 (find_agg "l2" aggs).calls;
  Alcotest.(check int) "l3 called twice" 2 (find_agg "l3" aggs).calls;
  (* The Self_us folding covers the same stacks with timing weights. *)
  let timed = Obs.Trace.to_folded () in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) (prefix ^ " present") true
        (contains timed prefix))
    [ "l1 "; "l1;l2 "; "l1;l2;l3 " ]

(* Call-weighted folded stacks are a pure function of the span-nesting
   structure, so a fan-out whose per-task span tree is fixed produces
   byte-identical output at any pool size — the tids differ, the folded
   stacks don't. *)
let test_trace_folded_pool_invariant () =
  let run domains =
    with_trace @@ fun () ->
    Par.Pool.with_pool ~domains (fun pool ->
        ignore
          (Par.Pool.map pool (Array.init 8 Fun.id) (fun i ->
               Obs.Trace.span "task" (fun () ->
                   Obs.Trace.span "sub" spin;
                   i))));
    Obs.Trace.to_folded ~weight:Obs.Trace.Calls ()
  in
  let f1 = run 1 in
  let f2 = run 2 in
  let f4 = run 4 in
  Alcotest.(check string) "expected stacks" "task 8\ntask;sub 8\n" f1;
  Alcotest.(check string) "folded: 1 vs 2 domains" f1 f2;
  Alcotest.(check string) "folded: 1 vs 4 domains" f1 f4

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("disabled sinks record nothing", test_disabled_noop);
      ("counters, histograms, reset", test_counters_and_histograms);
      ("Pool.map merge is domain-count invariant",
       test_pool_merge_domain_invariant);
      ("Table 1 sweep snapshot identical at 1/2/4 domains",
       test_table1_snapshot_domain_invariant);
      ("per-algorithm counter snapshots pinned",
       test_algorithm_snapshots_pinned);
      ("trace spans and Chrome JSON export", test_trace_spans);
      ("trace self-time arithmetic", test_trace_self_time);
      ("trace span nesting and folded stacks", test_trace_nesting);
      ("folded stacks identical at 1/2/4 domains",
       test_trace_folded_pool_invariant);
    ]
