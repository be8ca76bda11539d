(* Layer replays for the traced run. Each replay calls one layer's public
   functions directly from here, timing every call, and then checks that
   it agrees bit for bit with the opaque call it explains; a disagreement
   is counted as a failure, never averaged away. *)

open Measure
module W = Workloads

(* ---- packing: the probe oracle under the yield search ---- *)

type packing = {
  probe_ms : float array;  (** one oracle call each *)
  busy_frac : float;  (** probe time / replayed solve time *)
  attempts_per_probe : float;
  bins_per_probe : float;
  perm_keys_per_probe : float;
  evaluate_us : float list;
  packing_bad : int;
}

let strategies (algo : Heuristics.Algorithms.t) =
  match algo.kind with
  | Heuristics.Algorithms.Yield_search s -> s
  | Heuristics.Algorithms.Direct -> invalid_arg "Layers: not a yield search"

(* [Binary_search.maximize] over [Vp_solver.batch_oracle], then
   [Vp_solver.evaluate] — must equal [Vp_solver.solve_multi]. The replay
   runs with metrics off so that its timings carry no counting cost; the
   per-probe counters come from the reference call. *)
let packing_replay (jobs : Heuristics.Batch.job array) =
  let probe_s = ref [] and solve_s = ref 0. and evaluate_us = ref [] in
  let probes = ref 0 and attempts = ref 0 and bins = ref 0 and keys = ref 0 in
  let bad = ref 0 in
  Array.iter
    (fun (j : Heuristics.Batch.job) ->
      let strategies = strategies j.algo in
      let replay () =
        let oracle, retire =
          Heuristics.Vp_solver.batch_oracle strategies j.instance
        in
        let timed y =
          let r, dt = time (fun () -> oracle y) in
          probe_s := dt :: !probe_s;
          r
        in
        let found = Heuristics.Binary_search.maximize timed in
        retire ();
        Option.bind found (fun (placement, _) ->
            let r, dt =
              time (fun () -> Heuristics.Vp_solver.evaluate j.instance placement)
            in
            evaluate_us := (dt *. 1e6) :: !evaluate_us;
            r)
      in
      let replayed, dt = time replay in
      solve_s := !solve_s +. dt;
      let reference, count =
        counting (fun () ->
            Heuristics.Vp_solver.solve_multi strategies j.instance)
      in
      probes := !probes + count "vp_solver.oracle_calls";
      attempts := !attempts + count "packing.placement_attempts";
      bins := !bins + count "packing.bins_examined";
      keys := !keys + count "packing.perm_keys_tried";
      if not (W.same_solution replayed reference) then begin
        Printf.eprintf "packing replay differs from solve_multi\n%!";
        incr bad
      end)
    jobs;
  {
    probe_ms = Array.of_list (List.map (fun s -> s *. 1000.) !probe_s);
    busy_frac = ratio (List.fold_left ( +. ) 0. !probe_s) !solve_s;
    attempts_per_probe = fratio !attempts !probes;
    bins_per_probe = fratio !bins !probes;
    perm_keys_per_probe = fratio !keys !probes;
    evaluate_us = !evaluate_us;
    packing_bad = !bad;
  }

(* ---- lp: the relaxation under the rounding algorithms ---- *)

type lp = {
  solve_ms : float array;
  lp_busy_frac : float;  (** LP time / rounding solve time *)
  pivots_per_solve : float;
  refactorizations_per_solve : float;
  lu_flops_per_solve : float;
  degenerate_frac : float;
  lp_bad : int;
}

(* [Lp.Simplex.solve] on [Milp.formulation ~integer:false]; its optimum
   must equal [Milp.relaxed_bound], the rounding algorithms' LP, whose
   counted run gives the per-solve counters. *)
let lp_replay (jobs : Heuristics.Batch.job array) =
  let lp_s = ref [] and round_s = ref 0. and bad = ref 0 in
  let pivots = ref 0 and refact = ref 0 and flops = ref 0 and degen = ref 0 in
  Array.iter
    (fun (j : Heuristics.Batch.job) ->
      let problem, _ = Heuristics.Milp.formulation ~integer:false j.instance in
      let result, dt = time (fun () -> Lp.Simplex.solve problem) in
      lp_s := dt :: !lp_s;
      let _, dt = time (fun () -> j.algo.solve j.instance) in
      round_s := !round_s +. dt;
      let bound, count =
        counting (fun () -> Heuristics.Milp.relaxed_bound j.instance)
      in
      pivots := !pivots + count "simplex.pivots";
      refact := !refact + count "simplex.refactorizations";
      flops := !flops + count "simplex.lu_flops";
      degen := !degen + count "simplex.degenerate_pivots";
      let agrees =
        match (result, bound) with
        | Lp.Simplex.Optimal s, Some b -> W.bits_equal s.objective b
        | Lp.Simplex.Infeasible, None -> true
        | _ -> false
      in
      if not agrees then begin
        Printf.eprintf "LP replay differs from Milp.relaxed_bound\n%!";
        incr bad
      end)
    jobs;
  let n = Array.length jobs in
  {
    solve_ms = Array.of_list (List.map (fun s -> s *. 1000.) !lp_s);
    lp_busy_frac = ratio (List.fold_left ( +. ) 0. !lp_s) !round_s;
    pivots_per_solve = fratio !pivots n;
    refactorizations_per_solve = fratio !refact n;
    lu_flops_per_solve = fratio !flops n;
    degenerate_frac = fratio !degen !pivots;
    lp_bad = !bad;
  }

(* ---- simulator + sharing: one sharded request, shard by shard ---- *)

type sim = {
  slice_ms : float array;  (** wall time between consecutive timeline emits *)
  bins_per_event : float;
  reeval_frac : float;
  repairs_per_event : float;
  fallbacks : int;
  imbalance_max : float;
  eval_ms : float;  (** one [actual_min_yield] over a shard's horizon live set *)
  sharing_busy_frac : float;
  sim_bad : int;
}

let slices_per_shard = 48
let eval_repeats = 5

(* The services live at a shard's horizon as a model instance; the
   estimated CPU need serves as both the true and the estimated side,
   which costs the evaluation the same. *)
let live_instance nodes (finals : Simulator.Engine.final_service list) =
  let finals = Array.of_list finals in
  let services =
    Array.mapi
      (fun id (f : Simulator.Engine.final_service) ->
        Model.Service.make_2d ~id ~mem_req:f.f_mem
          ~cpu_need:(f.f_cpu /. 4., f.f_cpu) ())
      finals
  in
  ( Model.Instance.v ~nodes ~services,
    Array.map (fun (f : Simulator.Engine.final_service) -> f.f_node) finals )

(* Each shard through [Sharded.partition] + [shard_seed] + [Engine.run]
   with a timeline; the stats and finals must equal [Sharded.run]'s. The
   counted reference run gives the simulator counters. *)
let sim_replay ~(inputs : W.inputs) seed =
  let reference, count =
    counting (fun () -> W.run_sim ~platform:inputs.platform seed)
  in
  let shards = Array.length inputs.shard_nodes in
  let interval = W.online_config.horizon /. float_of_int slices_per_shard in
  let slices = ref [] and active = Array.make shards [||] in
  let bad = ref 0 and eval_ms = ref [] and wall = ref 0. in
  for k = 0 to shards - 1 do
    let rng =
      Prng.Rng.create
        ~seed:
          (if shards = 1 then seed
           else Simulator.Sharded.shard_seed ~seed ~shard:k ~shards)
    in
    let last = ref None and act = ref [] and finals = ref [] in
    let emit (x : Simulator.Engine.timeline_sample) =
      let t = now () in
      Option.iter (fun l -> slices := ((t -. l) *. 1000.) :: !slices) !last;
      last := Some t;
      act := x.tl_active :: !act
    in
    let stats, dt =
      time (fun () ->
          Simulator.Engine.run ~rng
            ~final:(fun f -> finals := f)
            ~timeline:(interval, emit) W.online_config
            ~platform:inputs.shard_nodes.(k))
    in
    wall := !wall +. dt;
    active.(k) <- Array.of_list (List.rev !act);
    if
      compare (stats, !finals) (reference.per_shard.(k), reference.finals.(k))
      <> 0
    then begin
      Printf.eprintf "shard %d replay differs from Sharded.run\n%!" k;
      incr bad
    end;
    if !finals <> [] then begin
      let inst, placement = live_instance inputs.shard_nodes.(k) !finals in
      eval_ms :=
        median
          (Array.init eval_repeats (fun _ ->
               1000.
               *. snd
                    (time (fun () ->
                         Sharing.Runtime_eval.actual_min_yield
                           W.online_config.policy ~true_instance:inst
                           ~estimated:inst placement))))
        :: !eval_ms
    end
  done;
  let m = reference.merged in
  let events = m.arrivals + m.departures in
  let skips = count "simulator.reeval_skips" in
  let eval_ms = median_l !eval_ms in
  (* Grid point g is the same virtual instant in every shard. *)
  let imbalance_max = ref 0. in
  let points = Array.fold_left (fun m a -> min m (Array.length a)) max_int active in
  for g = 0 to points - 1 do
    let counts = Array.map (fun a -> float_of_int a.(g)) active in
    let mean = Array.fold_left ( +. ) 0. counts /. float_of_int shards in
    let mx = Array.fold_left Float.max 0. counts in
    if mean > 0. then imbalance_max := Float.max !imbalance_max ((mx -. mean) /. mean)
  done;
  {
    slice_ms = Array.of_list !slices;
    bins_per_event = fratio (count "simulator.bins_touched") events;
    reeval_frac = 1. -. fratio skips events;
    repairs_per_event = fratio (count "simulator.repairs") events;
    fallbacks = count "simulator.repair_fallbacks";
    imbalance_max = !imbalance_max;
    eval_ms;
    sharing_busy_frac =
      ratio (float_of_int (events - skips) *. eval_ms /. 1000.) !wall;
    sim_bad = !bad;
  }
