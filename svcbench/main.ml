(* Service benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--repeat K]

   One closed-loop client sends the workload's requests one after another
   over a pool of [nproc] domains (the caller counted as one) for [S]
   seconds, checks every result, and prints the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). The last stdout line
   is one JSON object {correct, attempted, failed, metrics}; the exit
   code is non-zero when any check failed. --repeat K re-runs the same
   command K times in child processes, seeds N..N+K-1, and prints each
   metric's median and quartiles. *)

open Measure
module W = Workloads

(* CPU time the hypervisor gave to other guests, summed over this
   machine's CPUs, in clock ticks (the "steal" column of /proc/stat); 0
   where it is not reported. Printed next to the timings: on a shared
   machine, slow runs are the ones the hypervisor stole time from. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          int_of_string_opt steal |> Option.value ~default:0
      | _ -> 0)
  | None | (exception Sys_error _) -> 0

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %f" Fun.id /. 1024.
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* ---- Set-up ---- *)

let domains = max 1 (Domain.recommended_domain_count ())
let setup_repeats = 5

type env = { inputs : W.inputs; pool : Par.Pool.t; sched : Par.Scheduler.t }

(* Generate the inputs, create the pool and scheduler, and serve one
   untimed warm-up request — [setup_repeats] times. Returns the last
   environment (the others are shut down), the median set-up time and the
   median generation time. *)
let setup kind ~seed =
  let one () =
    let t0 = now () in
    let inputs = W.generate kind ~seed in
    let gen_s = now () -. t0 in
    let pool = Par.Pool.create ~domains in
    let sched = Par.Scheduler.create ~pool in
    ignore (W.run ~sched ~platform:inputs.platform inputs.requests.(0));
    ({ inputs; pool; sched }, now () -. t0, gen_s)
  in
  let runs = List.init setup_repeats (fun _ -> one ()) in
  let envs = List.map (fun (e, _, _) -> e) runs in
  List.iteri
    (fun i e -> if i < setup_repeats - 1 then Par.Pool.shutdown e.pool)
    envs;
  ( List.nth envs (setup_repeats - 1),
    median_l (List.map (fun (_, s, _) -> s) runs),
    median_l (List.map (fun (_, _, g) -> g) runs) )

(* ---- The closed loop ---- *)

(* What a distinct request returned the first time it was served. *)
type ledger = {
  first : W.outcome option array;
  yield_sum : float array;  (** summed min yield of its served solves *)
  yield_n : int array;
}

let new_ledger n =
  {
    first = Array.make n None;
    yield_sum = Array.make n 0.;
    yield_n = Array.make n 0;
  }

type loop_stats = {
  latencies : float array;  (** seconds per request, in serving order *)
  lat_by_request : float list array;  (** per distinct request *)
  ops : int;  (** tenant solves, or simulated events *)
  ops_per_pass : int;  (** [ops] of one serving of every distinct request *)
  attempted : int;  (** operations checked *)
  failed : int;
  served : int;  (** placements returned, or arrivals admitted *)
  offered : int;  (** solves attempted, or arrivals *)
  evaluate_us : float list;  (** water-filling times of the checks *)
}

let op_count = function
  | W.Solved a -> Array.length a
  | W.Simulated r -> r.merged.arrivals + r.merged.departures

(* Full checks on a request's first serving; every later serving must
   repeat it bit for bit. Returns (attempted, failed). *)
let check_outcome env ledger ~eval k req outcome =
  match (ledger.first.(k), outcome) with
  | Some first, _ ->
      let n = match outcome with W.Solved a -> Array.length a | _ -> 1 in
      (n, if W.same_outcome first outcome then 0 else n)
  | None, W.Solved results ->
      ledger.first.(k) <- Some outcome;
      let jobs = W.jobs req in
      let bad = ref 0 in
      Array.iteri
        (fun t r ->
          if not (W.check_solution ~eval jobs.(t).Heuristics.Batch.instance r)
          then incr bad;
          Option.iter
            (fun (s : Heuristics.Vp_solver.solution) ->
              ledger.yield_sum.(k) <- ledger.yield_sum.(k) +. s.min_yield;
              ledger.yield_n.(k) <- ledger.yield_n.(k) + 1)
            r)
        results;
      (Array.length results, !bad)
  | None, W.Simulated r ->
      ledger.first.(k) <- Some outcome;
      ledger.yield_sum.(k) <- r.merged.mean_min_yield;
      ledger.yield_n.(k) <- 1;
      (1, if W.check_sim ~shard_nodes:env.inputs.shard_nodes r then 0 else 1)

let served_offered = function
  | W.Solved a ->
      (Array.fold_left (fun n r -> if r = None then n else n + 1) 0 a,
       Array.length a)
  | W.Simulated r -> (r.merged.admitted, r.merged.arrivals)

(* Enough samples for a tail percentile with 10 beyond it. *)
let min_requests = 24

(* Serve the distinct requests in order, cycling, until [seconds] of wall
   time have passed and at least [min_requests] (and every distinct
   request) were served. [around] wraps each request. *)
let closed_loop ?(around = fun f -> f ()) env ledger ~seconds =
  let reqs = env.inputs.requests in
  let n_distinct = Array.length reqs in
  let lat = ref [] and by_req = Array.make n_distinct [] in
  let req_ops = Array.make n_distinct 0 in
  let ops = ref 0 and attempted = ref 0 and failed = ref 0 in
  let served = ref 0 and offered = ref 0 and evaluate_us = ref [] in
  let eval f =
    let r, dt = time f in
    evaluate_us := (dt *. 1e6) :: !evaluate_us;
    r
  in
  let t_start = now () in
  let i = ref 0 in
  while !i < max min_requests n_distinct || now () -. t_start < seconds do
    let k = !i mod n_distinct in
    let req = reqs.(k) in
    (match
       time (fun () ->
           around (fun () ->
               W.run ~sched:env.sched ~platform:env.inputs.platform req))
     with
    | exception e ->
        Printf.eprintf "request %d raised %s\n%!" k (Printexc.to_string e);
        let n = max 1 (Array.length (W.jobs req)) in
        attempted := !attempted + n;
        failed := !failed + n
    | o, dt ->
        lat := dt :: !lat;
        by_req.(k) <- dt :: by_req.(k);
        req_ops.(k) <- op_count o;
        ops := !ops + op_count o;
        let a, f = check_outcome env ledger ~eval k req o in
        attempted := !attempted + a;
        failed := !failed + f;
        let s, n = served_offered o in
        served := !served + s;
        offered := !offered + n);
    incr i
  done;
  {
    latencies = Array.of_list (List.rev !lat);
    lat_by_request = by_req;
    ops = !ops;
    ops_per_pass = Array.fold_left ( + ) 0 req_ops;
    attempted = !attempted;
    failed = !failed;
    served = !served;
    offered = !offered;
    evaluate_us = !evaluate_us;
  }

(* Operations of one pass over the distinct requests, per second of the
   pass's wall time taking each request's median latency: throughput of
   the fixed request mix, robust to interference that slows a few
   requests of a run. *)
let ops_per_s s =
  let pass = ref 0. in
  Array.iter (fun l -> if l <> [] then pass := !pass +. median_l l) s.lat_by_request;
  float_of_int s.ops_per_pass /. !pass

(* The first distinct request re-run with no pool (back-to-back
   [algo.solve], or shard after shard) must equal the pooled outcome bit
   for bit. Returns (failures, serial wall, the request's median pooled
   wall in the loop). *)
let serial_check env ledger loop =
  let o, serial =
    time (fun () ->
        W.run_serial ~platform:env.inputs.platform env.inputs.requests.(0))
  in
  let ok =
    match ledger.first.(0) with
    | Some first -> W.same_outcome first o
    | None -> false
  in
  if not ok then prerr_endline "request 0: serial run differs from the pooled run";
  ((if ok then 0 else 1), serial, median_l loop.lat_by_request.(0))

(* ---- Output ---- *)

type metric = { name : string; value : float; unit_ : string }

let print_result ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (num m.value) m.unit_)
          metrics))

(* ---- End-to-end run ---- *)

let end_to_end kind ~seed ~seconds =
  let env, setup_s, _ = setup kind ~seed in
  let ledger = new_ledger (Array.length env.inputs.requests) in
  let steal0 = steal_ticks () in
  let loop = closed_loop env ledger ~seconds in
  let steal = steal_ticks () - steal0 in
  let serial_bad, _, _ = serial_check env ledger loop in
  Par.Pool.shutdown env.pool;
  let lat_ms = Array.map (fun s -> s *. 1000.) loop.latencies in
  let tail_ms, tail_pct = tail lat_ms in
  let attempted = loop.attempted + 1 in
  let failed = loop.failed + serial_bad in
  Printf.printf
    "workload %s  seed %d  domains %d  requests %d  ops %d  steal %d ticks\n"
    (W.name kind) seed domains (Array.length lat_ms) loop.ops steal;
  Printf.printf "latency_tail_ms is p%.1f of %d requests (10 beyond it)\n"
    tail_pct (Array.length lat_ms);
  let metrics =
    [
      { name = "setup_s"; value = setup_s; unit_ = "s" };
      { name = "ops_per_s"; value = ops_per_s loop; unit_ = "1/s" };
      { name = "latency_p50_ms"; value = median lat_ms; unit_ = "ms" };
      { name = "latency_tail_ms"; value = tail_ms; unit_ = "ms" };
      {
        name = "yield_mean";
        value =
          ratio
            (Array.fold_left ( +. ) 0. ledger.yield_sum)
            (float_of_int (Array.fold_left ( + ) 0 ledger.yield_n));
        unit_ = "yield";
      };
      { name = "served_frac"; value = fratio loop.served loop.offered; unit_ = "frac" };
      { name = "ok_frac"; value = fratio (attempted - failed) attempted; unit_ = "frac" };
      { name = "peak_rss_mb"; value = peak_rss_mb (); unit_ = "MB" };
    ]
  in
  List.iter
    (fun m -> Printf.printf "  %-16s %14.6g %s\n" m.name m.value m.unit_)
    metrics;
  print_result ~attempted ~failed metrics;
  failed = 0

(* ---- Per-layer (traced) run ---- *)

(* The end-to-end metric each layer should move, and on which workload. *)
let layer_target = function
  | "par" -> "ops_per_s, latency on batch-small; not lp-rounding"
  | "heuristics" -> "latency on solve-large; ops_per_s on batch-small"
  | "packing" ->
      "latency on solve-large; ops_per_s on batch-small; not lp-rounding"
  | "model" -> "none (guard)"
  | "lp" -> "ops_per_s, latency on lp-rounding only"
  | "simulator" -> "ops_per_s, latency on online only"
  | "sharing" -> "ops_per_s on online"
  | "workload" -> "setup_s"
  | "obs" -> "(untraced vs traced ops_per_s)"
  | _ -> "?"

let map_empty_calls = 2000

let per_layer kind ~seed ~seconds =
  let env, _, gen_s = setup kind ~seed in
  let ledger = new_ledger (Array.length env.inputs.requests) in
  (* The traced loop sits between two untraced half-length loops, so that
     a drift in machine speed cancels out of the tracing overhead. Every
     loop's outcomes must repeat the first one's bit for bit. *)
  let untraced = closed_loop env ledger ~seconds:(seconds /. 2.) in
  Obs.Trace.reset ();
  Obs.Trace.start ();
  let traced, count =
    counting (fun () ->
        closed_loop ~around:(fun f -> Obs.Trace.span "request" f) env ledger
          ~seconds)
  in
  Obs.Trace.stop ();
  let spans = Obs.Trace.aggregate () in
  Obs.Trace.reset ();
  let untraced_after = closed_loop env ledger ~seconds:(seconds /. 2.) in
  let untraced_ops =
    0.5 *. (ops_per_s untraced +. ops_per_s untraced_after)
  in
  let serial_bad, serial_s, pooled_s = serial_check env ledger untraced in
  let map_empty_us =
    let tasks = Array.make domains () in
    1e6
    *. median
         (Array.init map_empty_calls (fun _ ->
              snd (time (fun () -> Par.Pool.map env.pool tasks Fun.id))))
  in
  Par.Pool.shutdown env.pool;
  (* Each layer replays this workload's own inputs where the workload
     exercises it, and otherwise ("standalone") the inputs of the workload
     that does, generated from the same seed: the first requests' jobs,
     enough for 40 or more calls, so that each replayed call's tail
     percentile lies above its median. *)
  let first_jobs (requests : W.request array) n =
    Array.concat (List.init n (fun i -> W.jobs requests.(i)))
  in
  let other k = (W.generate k ~seed).requests in
  let packing_active, packing_jobs =
    match kind with
    | Batch_small -> (true, first_jobs env.inputs.requests 1)
    | Solve_large -> (true, first_jobs env.inputs.requests 3)
    | Lp_rounding | Online ->
        (false, Array.sub (first_jobs (other Batch_small) 1) 0 4)
  in
  let lp_active, lp_jobs =
    match kind with
    | Lp_rounding -> (true, first_jobs env.inputs.requests 3)
    | _ -> (false, first_jobs (other Lp_rounding) 3)
  in
  let sim_active, sim_inputs =
    match kind with
    | Online -> (true, env.inputs)
    | _ -> (false, W.generate Online ~seed)
  in
  let sim_seed =
    match sim_inputs.requests.(0) with W.Sim s -> s | _ -> assert false
  in
  let pk = Layers.packing_replay packing_jobs in
  let lp = Layers.lp_replay lp_jobs in
  let sim = Layers.sim_replay ~inputs:sim_inputs sim_seed in
  let requests = Array.length traced.latencies in
  let solves = if kind = Online then 0 else traced.attempted in
  let pool_rounds =
    match env.inputs.requests.(0) with
    | W.Batch _ -> fratio (count "scheduler.rounds_interleaved") requests
    | W.Single _ -> fratio (count "binary_search.rounds") requests
    | W.Sim _ -> 1. (* one Pool.map over the shards *)
  in
  let probes = count "binary_search.probes" in
  let probe_tail, probe_pct = tail pk.probe_ms in
  let lp_tail, lp_pct = tail lp.solve_ms in
  let slice_tail, slice_pct = tail sim.slice_ms in
  let ms =
    [
      ("par.map_empty_us", map_empty_us, "us");
      ("par.rounds_per_request", pool_rounds, "count");
      ("par.speedup_vs_serial", ratio serial_s pooled_s, "x");
      ("par.idle_frac", 1. -. ratio serial_s (float_of_int domains *. pooled_s), "frac");
      ("heuristics.probes_per_solve", fratio probes solves, "count");
      ("heuristics.rounds_per_solve", fratio (count "binary_search.rounds") solves, "count");
      ("heuristics.waste_frac", fratio (count "binary_search.speculative_waste") probes, "frac");
      ( "heuristics.feasible_frac",
        fratio (count "vp_solver.oracle_feasible") (count "vp_solver.oracle_calls"),
        "frac" );
      ("packing.probe_ms_p50", median pk.probe_ms, "ms");
      ("packing.probe_ms_tail", probe_tail, "ms");
      ("packing.busy_frac", pk.busy_frac, "frac");
      ("packing.attempts_per_probe", pk.attempts_per_probe, "count");
      ("packing.bins_examined_per_probe", pk.bins_per_probe, "count");
      ("packing.perm_keys_per_probe", pk.perm_keys_per_probe, "count");
      ("packing.scratch_reuses", float_of_int (count "scheduler.scratch_reuses"), "count");
      ( "model.evaluate_us",
        median_l (traced.evaluate_us @ untraced.evaluate_us @ pk.evaluate_us),
        "us" );
      ("lp.solve_ms_p50", median lp.solve_ms, "ms");
      ("lp.solve_ms_tail", lp_tail, "ms");
      ("lp.busy_frac", lp.lp_busy_frac, "frac");
      ("lp.pivots_per_solve", lp.pivots_per_solve, "count");
      ("lp.refactorizations_per_solve", lp.refactorizations_per_solve, "count");
      ("lp.lu_flops_per_solve", lp.lu_flops_per_solve, "count");
      ("lp.degenerate_frac", lp.degenerate_frac, "frac");
      ("simulator.slice_ms_p50", median sim.slice_ms, "ms");
      ("simulator.slice_ms_tail", slice_tail, "ms");
      ("simulator.bins_touched_per_event", sim.bins_per_event, "count");
      ("simulator.reeval_frac", sim.reeval_frac, "frac");
      ("simulator.repairs_per_event", sim.repairs_per_event, "count");
      ("simulator.fallbacks", float_of_int sim.fallbacks, "count");
      ("simulator.shard_imbalance_max", sim.imbalance_max, "frac");
      ("sharing.eval_ms", sim.eval_ms, "ms");
      ("sharing.busy_frac_est", sim.sharing_busy_frac, "frac");
      ( "workload.gen_ms_per_instance",
        1000. *. gen_s /. float_of_int env.inputs.instances_generated,
        "ms" );
      ( "obs.trace_overhead_frac",
        1. -. ratio (ops_per_s traced) untraced_ops,
        "frac" );
    ]
  in
  let layer name = List.hd (String.split_on_char '.' name) in
  let input_of = function
    | "packing" -> if packing_active then "own" else "standalone"
    | "model" -> if kind = Online then "standalone" else "own"
    | "lp" -> if lp_active then "own" else "standalone"
    | "simulator" | "sharing" -> if sim_active then "own" else "standalone"
    | _ -> "own"
  in
  Printf.printf "workload %s  seed %d  domains %d  (traced)\n" (W.name kind) seed
    domains;
  Printf.printf "%-34s %14s %-6s %-10s %s\n" "metric" "value" "unit" "input"
    "should move";
  List.iter
    (fun (name, v, u) ->
      let l = layer name in
      Printf.printf "%-34s %14.6g %-6s %-10s %s\n" name v u (input_of l)
        (layer_target l))
    ms;
  Printf.printf
    "tails: packing probe p%.1f of %d, lp solve p%.1f of %d, simulator slice \
     p%.1f of %d\n"
    probe_pct (Array.length pk.probe_ms) lp_pct (Array.length lp.solve_ms)
    slice_pct (Array.length sim.slice_ms);
  Printf.printf "trace spans by self time (traced loop):\n";
  List.iter
    (fun (a : Obs.Trace.agg) ->
      Printf.printf "  %-24s calls %8d  total %10.1f ms  self %10.1f ms\n"
        a.label a.calls (a.total_us /. 1000.) (a.self_us /. 1000.))
    (List.sort (fun (a : Obs.Trace.agg) b -> compare b.self_us a.self_us) spans);
  let replayed =
    Array.length packing_jobs + Array.length lp_jobs
    + Array.length sim_inputs.shard_nodes
  in
  let attempted =
    untraced.attempted + traced.attempted + untraced_after.attempted + 1
    + replayed
  in
  let failed =
    untraced.failed + traced.failed + untraced_after.failed + serial_bad
    + pk.packing_bad + lp.lp_bad + sim.sim_bad
  in
  print_result ~attempted ~failed
    (List.map (fun (name, value, unit_) -> { name; value; unit_ }) ms);
  failed = 0

(* ---- Repeat mode ---- *)

let last_line s =
  match List.rev (String.split_on_char '\n' (String.trim s)) with
  | l :: _ -> l
  | [] -> ""

let run_child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (out, status)

let repeat kind ~seed ~seconds ~trace ~count =
  let values = Hashtbl.create 64 and order = ref [] and all_ok = ref true in
  for s = seed to seed + count - 1 do
    let out, status =
      run_child
        [ "--workload"; W.name kind; "--seed"; string_of_int s; "--seconds";
          Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
    in
    if status <> Unix.WEXITED 0 then all_ok := false;
    match Obs.Json.parse (last_line out) with
    | Error e ->
        all_ok := false;
        Printf.printf "seed %d: no result (%s)\n%!" s e
    | Ok json ->
        Printf.printf "seed %d:" s;
        Option.iter
          (fun ms ->
            List.iter
              (fun (name, m) ->
                Option.iter
                  (fun v ->
                    Printf.printf " %s=%.5g" name v;
                    if not (Hashtbl.mem values name) then order := name :: !order;
                    Hashtbl.replace values name
                      (v :: Option.value ~default:[] (Hashtbl.find_opt values name)))
                  (Option.bind (Obs.Json.member "value" m) Obs.Json.to_num))
              (Obs.Json.obj_items ms))
          (Obs.Json.member "metrics" json);
        Printf.printf "\n%!"
  done;
  Printf.printf "%-34s %12s %12s %12s %9s\n" "metric" "median" "q1" "q3"
    "iqr/med";
  List.iter
    (fun name ->
      let v = Array.of_list (Hashtbl.find values name) in
      let med = median v and q1, q3 = quartiles v in
      Printf.printf "%-34s %12.5g %12.5g %12.5g %9.4f\n" name med q1 q3
        (ratio (q3 -. q1) (Float.abs med)))
    (List.rev !order);
  !all_ok

(* ---- Command line ---- *)

let usage =
  "main.exe --workload (batch-small|solve-large|lp-rounding|online) --seed N \
   --seconds S --trace 0|1 [--repeat K]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and repeats = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--repeat", Arg.Set_int repeats, "K run K seeds in child processes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let kind =
    match List.assoc_opt !workload W.all with
    | Some k -> k
    | None ->
        prerr_endline ("unknown workload '" ^ !workload ^ "'\n" ^ usage);
        exit 2
  in
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let ok =
    if !repeats > 0 then
      repeat kind ~seed:!seed ~seconds:!seconds ~trace:!trace ~count:!repeats
    else if !trace = 1 then per_layer kind ~seed:!seed ~seconds:!seconds
    else end_to_end kind ~seed:!seed ~seconds:!seconds
  in
  exit (if ok then 0 else 1)
