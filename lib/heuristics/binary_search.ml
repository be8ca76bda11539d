let default_tolerance = 1e-4

(* A non-positive tolerance would make the bisection loop non-terminating
   (the bracket can never become narrower than 0), so it is clamped to the
   paper's threshold rather than trusted. *)
let clamp_tolerance tolerance =
  if tolerance <= 0. then default_tolerance else tolerance

(* Every oracle round passes through [announce], so the round/probe
   counters live here: one round per call, one probe per candidate point
   (the pooled search evaluates the whole batch). *)
let c_rounds = Obs.Metrics.counter "binary_search.rounds"
let c_probes = Obs.Metrics.counter "binary_search.probes"

(* Speculative probes evaluated by a [plan] fan that the sequential probe
   path never consumes — the price of interleaving fewer rounds. *)
let c_waste = Obs.Metrics.counter "binary_search.speculative_waste"

(* Speculation depth actually used per bisect round (after the remaining-
   levels cap), so the chosen depths are observable next to the waste
   they produce. *)
let h_depth = Obs.Metrics.histogram "binary_search.depth"

let announce on_round points =
  Obs.Metrics.incr c_rounds;
  Obs.Metrics.add c_probes (Array.length points);
  match on_round with Some f -> f points | None -> ()

(* State-threading variant: the oracle receives an accumulator alongside
   the probed yield and returns the updated accumulator with the verdict.
   The probe schedule is identical to [maximize] — the state rides along
   (LP warm-start bases in {!Milp.relaxed_yield_search}), it never steers
   the bisection, so warm and cold searches take the same probe path. *)
let maximize_warm ?(tolerance = default_tolerance) ?on_round ~init oracle =
  let tolerance = clamp_tolerance tolerance in
  let state = ref init in
  let probe y =
    let next, verdict = oracle !state y in
    state := next;
    verdict
  in
  announce on_round [| 1. |];
  match probe 1. with
  | Some sol -> Some (sol, 1.)
  | None -> (
      announce on_round [| 0. |];
      match probe 0. with
      | None -> None
      | Some sol0 ->
          let best = ref (sol0, 0.) in
          let lo = ref 0. and hi = ref 1. in
          while !hi -. !lo > tolerance do
            let mid = 0.5 *. (!lo +. !hi) in
            announce on_round [| mid |];
            match probe mid with
            | Some sol ->
                best := (sol, mid);
                lo := mid
            | None -> hi := mid
          done;
          Some !best)

let maximize ?tolerance ?on_round oracle =
  maximize_warm ?tolerance ?on_round ~init:()
    (fun () y -> ((), oracle y))

(* Depth of the speculative probe tree: the largest m with 2^m - 1
   candidate points needing at most ceil(log2 (k+1)) levels, i.e. the
   number of bisection levels one k-domain round can resolve. *)
let levels_for ~pool_size:k =
  let rec up m = if 1 lsl m >= k + 1 then m else up (m + 1) in
  max 1 (up 0)

(* Bisection levels the sequential loop still needs before [hi - lo]
   drops below the tolerance — the cap that keeps the final speculative
   rounds from fanning out candidates no resolution path can consume.
   Halving by [0.5 *. w] is exact in binary floating point, so the count
   tracks the loop's own bracket shrinkage. *)
let levels_needed ~tolerance ~lo ~hi =
  let w = ref (hi -. lo) and r = ref 0 in
  while !w > tolerance do
    w := 0.5 *. !w;
    incr r
  done;
  max 1 !r

(* The speculation-depth rule of the batched driver: with [occupancy]
   live searches sharing a [pool_size]-domain pool, each search's fair
   share is [pool_size / occupancy] domains (at least 1), and one round
   resolves as many bisection levels as that share can probe at once. A
   pure function of pool size and live-request count, so round counts are
   deterministic at every combination. *)
let depth_for ~pool_size ~occupancy =
  levels_for ~pool_size:(max 1 (pool_size / max 1 occupancy))

(* Steppable speculative search — the state machine behind
   [Par.Scheduler] batching (many requests interleaved per round). Each
   [plan_next] consumes the previous batch's verdicts and emits the next
   batch of candidate yields; points use the exact [0.5 *. (lo +. hi)]
   arithmetic of the sequential loop and the resolution walk replays its
   branch decisions, re-checking the stopping width before each level, so
   the outcome is bit-identical to [maximize] whatever depth each round
   used. *)
type stage = Init | Await_one | Await_zero | Await_bisect | Finished

type 'a plan = {
  p_tolerance : float;
  p_on_round : (float array -> unit) option;
  p_depth : remaining:int -> int;
  mutable p_stage : stage;
  mutable p_lo : float;
  mutable p_hi : float;
  mutable p_best : ('a * float) option;
  mutable p_points : float array;  (* the outstanding batch *)
}

let plan ?(tolerance = default_tolerance) ?on_round ~depth () =
  {
    p_tolerance = clamp_tolerance tolerance;
    p_on_round = on_round;
    p_depth = depth;
    p_stage = Init;
    p_lo = 0.;
    p_hi = 1.;
    p_best = None;
    p_points = [||];
  }

let emit p stage points =
  p.p_points <- points;
  p.p_stage <- stage;
  announce p.p_on_round (Array.copy points);
  Some points

(* The speculative fan under the current bracket: the next [m] bisection
   levels in heap order (children of i at 2i+1 / 2i+2), with [m] chosen
   by the plan's depth policy and capped by the levels actually left —
   deeper fans would only produce off-path waste the resolution walk can
   never consume. *)
let emit_fan p =
  let remaining =
    levels_needed ~tolerance:p.p_tolerance ~lo:p.p_lo ~hi:p.p_hi
  in
  let m = max 1 (min (p.p_depth ~remaining) remaining) in
  Obs.Metrics.observe h_depth m;
  let n = (1 lsl m) - 1 in
  let points = Array.make n 0. in
  let rec fill i lo hi =
    if i < n then begin
      let mid = 0.5 *. (lo +. hi) in
      points.(i) <- mid;
      fill ((2 * i) + 1) lo mid;
      fill ((2 * i) + 2) mid hi
    end
  in
  fill 0 p.p_lo p.p_hi;
  emit p Await_bisect points

let finish p =
  p.p_stage <- Finished;
  p.p_points <- [||];
  None

let plan_next p ~prev =
  if
    p.p_stage <> Init
    && Array.length prev <> Array.length p.p_points
  then
    invalid_arg
      "Binary_search.plan_next: result array does not match the \
       outstanding batch";
  match p.p_stage with
  | Finished -> None
  | Init -> emit p Await_one [| 1. |]
  | Await_one -> (
      match prev.(0) with
      | Some sol ->
          p.p_best <- Some (sol, 1.);
          finish p
      | None -> emit p Await_zero [| 0. |])
  | Await_zero -> (
      match prev.(0) with
      | None -> finish p
      | Some sol0 ->
          p.p_best <- Some (sol0, 0.);
          if p.p_hi -. p.p_lo > p.p_tolerance then emit_fan p else finish p)
  | Await_bisect ->
      (* Resolve the sequential probe path through the speculative
         results: descend to the upper child on a feasible probe and the
         lower child otherwise, re-checking the stopping width before
         consuming each level exactly as the sequential loop checks it
         before each probe. Off-path results are simply discarded — the
         oracle is pure, so evaluating them cannot change the outcome. *)
      let n = Array.length p.p_points in
      let consumed = ref 0 in
      let rec resolve i =
        if i < n && p.p_hi -. p.p_lo > p.p_tolerance then begin
          incr consumed;
          match prev.(i) with
          | Some sol ->
              p.p_best <- Some (sol, p.p_points.(i));
              p.p_lo <- p.p_points.(i);
              resolve ((2 * i) + 2)
          | None ->
              p.p_hi <- p.p_points.(i);
              resolve ((2 * i) + 1)
        end
      in
      resolve 0;
      Obs.Metrics.add c_waste (n - !consumed);
      if p.p_hi -. p.p_lo > p.p_tolerance then emit_fan p else finish p

let plan_result p = p.p_best

let plan_finished p = p.p_stage = Finished
