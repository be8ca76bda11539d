type solution = {
  placement : Model.Placement.t;
  min_yield : float;
}

let items_at_yield instance y =
  Array.init (Model.Instance.n_services instance) (fun j ->
      let s = Model.Instance.service instance j in
      Packing.Item.v ~id:j ~demand:(Model.Service.demand_at_yield s y))

let fresh_bins instance =
  Array.init (Model.Instance.n_nodes instance) (fun h ->
      let node = Model.Instance.node instance h in
      Packing.Bin.v ~id:h ~capacity:node.Model.Node.capacity)

let pack_at_yield strategy instance y =
  let items = items_at_yield instance y in
  let bins = fresh_bins instance in
  Packing.Strategy.run strategy ~bins ~items

(* Oracle-level observability: how many fixed-yield probes a solve costs,
   how many strategy attempts each probe burns before one packs, and which
   strategy actually wins (the question behind METAHVP's 253-strategy
   bill). Counting is keyed off strategy identity only, so totals are
   deterministic for a fixed amount of performed work. *)
let c_oracle = Obs.Metrics.counter "vp_solver.oracle_calls"
let c_feasible = Obs.Metrics.counter "vp_solver.oracle_feasible"
let c_attempts = Obs.Metrics.counter "vp_solver.strategy_attempts"
let h_win_index = Obs.Metrics.histogram "vp_solver.strategies_per_win"

let win_counter strategy =
  Obs.Metrics.counter ("vp_solver.win." ^ Packing.Strategy.name strategy)

let probe_args y = [ ("y", Printf.sprintf "%.6f" y) ]

(* One fixed-yield probe: try [strategies] in order until one packs.
   [packer y] runs inside the probe span and returns the attempt function
   at [y] — fresh allocation on the naive path, the refilled kernel
   otherwise. *)
let probe ~packer strategies y =
  Obs.Trace.span "probe" ~args:(probe_args y) @@ fun () ->
  Obs.Metrics.incr c_oracle;
  let pack = packer y in
  let rec attempt idx = function
    | [] -> None
    | strategy :: rest -> (
        Obs.Metrics.incr c_attempts;
        match pack strategy with
        | None -> attempt (idx + 1) rest
        | Some placement ->
            if Obs.Metrics.enabled () then begin
              Obs.Metrics.incr c_feasible;
              Obs.Metrics.incr (win_counter strategy);
              Obs.Metrics.observe h_win_index idx
            end;
            Obs.Trace.instant "win"
              ~args:
                (("strategy", Packing.Strategy.name strategy) :: probe_args y);
            Some placement)
  in
  attempt 1 strategies

(* Probe-shared packing kernel (DESIGN.md §11). Every strategy attempt of
   one fixed-yield probe sees the same item demands, so the kernel builds
   the item array once per solve and refills its demand vectors in place
   per probe (a fused [r + y*n] pass over the instance's flattened
   buffers), recycles one bin array via [Bin.reset] instead of
   reallocating per attempt, and memoizes per-probe sort orders and
   Permutation-Pack item permutations through [Strategy.cache].

   Bit-identity with the naive path: refilled demands use the exact
   [axpy] expression fresh allocation uses; reset bins equal fresh bins;
   memoized sorts are the same stable sorts over the same values; and the
   scratch-backed Permutation-Pack selection compares the same keys with
   the same tie-breaks. Locked down by test_kernel_diff.ml. *)
type kernel = {
  mutable k_instance : Model.Instance.t;
      (* mutable: scratch-pool rebinding re-points a retired solve's
         kernel at the next solve's instance *)
  k_items : Packing.Item.t array;
  k_bins : Packing.Bin.t array;
  k_cache : Packing.Strategy.cache;
  mutable k_yield : float;  (* yield k_items currently hold; nan = none *)
}

let make_kernel instance =
  let dims = instance.Model.Instance.dims in
  {
    k_instance = instance;
    k_items =
      Array.init (Model.Instance.n_services instance) (fun j ->
          Packing.Item.v ~id:j ~demand:(Vec.Epair.zero dims));
    k_bins = fresh_bins instance;
    k_cache = Packing.Strategy.cache ();
    k_yield = Float.nan;
  }

let refill k yld =
  if not (k.k_yield = yld) then begin
    let inst = k.k_instance in
    let dims = inst.Model.Instance.dims in
    Array.iteri
      (fun j (it : Packing.Item.t) ->
        let off = j * dims in
        Vec.Vector.axpy_fill it.Packing.Item.demand.Vec.Epair.elementary yld
          ~x:inst.Model.Instance.need_elem ~y:inst.Model.Instance.req_elem
          ~off;
        Vec.Vector.axpy_fill it.Packing.Item.demand.Vec.Epair.aggregate yld
          ~x:inst.Model.Instance.need_agg ~y:inst.Model.Instance.req_agg ~off)
      k.k_items;
    Packing.Strategy.cache_new_probe k.k_cache;
    k.k_yield <- yld
  end

(* Per-domain kernel scratch pools (DESIGN.md §16). The speculative probe
   search evaluates one solve's probes on several domains at once, so the
   scratch must be domain-local; under the batched scheduler many
   concurrent solves (tokens) additionally interleave on every domain, so
   each domain keeps a small token-keyed working set instead of PR 5's
   single latest-solve slot — and a free list of kernels whose solves
   have retired, to be *rebound* to the next same-shaped solve instead of
   allocated afresh. Results are domain-count independent — every kernel,
   fresh or rebound, computes the same bits (rebinding restores exactly
   the freshly-made state: [Bin.rebind] bins, [Strategy.cache_reset]
   memos, no held yield) — only the reuse/memo *hit* counters can vary
   with probe-task placement, like [binary_search.speculative_waste]
   already does. *)
type kernel_pool = {
  mutable entries : (int * kernel) list;  (* most recent solve first *)
  mutable free : kernel list;  (* retired kernels awaiting rebinding *)
}

(* Working-set bound per domain: above the live-token count of any sane
   batch, so eviction is a memory backstop for long-lived processes that
   never retire tokens (standalone solves), not a churn mechanism —
   keeping it comfortably above the trial counts of the byte-identity
   tests also keeps eviction (whose count depends on task placement) out
   of their snapshots. *)
let entries_cap = 64
let free_cap = 32

let kernel_pools : kernel_pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { entries = []; free = [] })

let solve_tokens = Atomic.make 0

(* Retired solve tokens, published by the batched driver when a request
   completes. Domains cannot reach into each other's domain-local pools,
   so retirement is a shared mark that every domain applies lazily (on
   its next kernel miss), moving dead entries to its free list. Bounded:
   a full table is dropped wholesale — losing pending marks only delays
   reuse until the entries cap evicts, it never affects results. *)
let retired : (int, unit) Hashtbl.t = Hashtbl.create 64
let retired_mutex = Mutex.create ()
let retired_cap = 8192

let retire_token token =
  Mutex.lock retired_mutex;
  if Hashtbl.length retired >= retired_cap then Hashtbl.reset retired;
  Hashtbl.replace retired token ();
  Mutex.unlock retired_mutex

let sweep_retired pool =
  if pool.entries <> [] then begin
    Mutex.lock retired_mutex;
    let dead, live =
      List.partition (fun (t, _) -> Hashtbl.mem retired t) pool.entries
    in
    Mutex.unlock retired_mutex;
    if dead <> [] then begin
      pool.entries <- live;
      List.iter
        (fun (_, k) ->
          if List.length pool.free < free_cap then pool.free <- k :: pool.free)
        dead
    end
  end

let c_scratch = Obs.Metrics.counter "scheduler.scratch_reuses"

let shape_matches k instance =
  Array.length k.k_items = Model.Instance.n_services instance
  && Array.length k.k_bins = Model.Instance.n_nodes instance
  && (Array.length k.k_bins = 0
     || Packing.Bin.dim k.k_bins.(0) = instance.Model.Instance.dims)

(* Restore a recycled kernel to exactly the state [make_kernel] would
   build for [instance]: re-point the bins at the new nodes' capacities,
   drop every sort/permutation memo (the bin memos alias the old bins),
   and forget the held yield so the first probe refills the item demands
   from the new instance's buffers. *)
let rebind_kernel k instance =
  k.k_instance <- instance;
  Array.iteri
    (fun h (b : Packing.Bin.t) ->
      Packing.Bin.rebind b
        ~capacity:(Model.Instance.node instance h).Model.Node.capacity)
    k.k_bins;
  Packing.Strategy.cache_reset k.k_cache;
  k.k_yield <- Float.nan

let take_free pool instance =
  let rec go acc = function
    | [] -> None
    | k :: rest when shape_matches k instance ->
        pool.free <- List.rev_append acc rest;
        Some k
    | k :: rest -> go (k :: acc) rest
  in
  go [] pool.free

let evict_oldest pool =
  match List.rev pool.entries with
  | [] -> ()
  | (_, k) :: rev_rest ->
      pool.entries <- List.rev rev_rest;
      if List.length pool.free < free_cap then pool.free <- k :: pool.free

let kernel_for ~token instance =
  let pool = Domain.DLS.get kernel_pools in
  match List.assoc_opt token pool.entries with
  | Some k -> k
  | None ->
      sweep_retired pool;
      if List.length pool.entries >= entries_cap then evict_oldest pool;
      let k =
        match take_free pool instance with
        | Some k ->
            rebind_kernel k instance;
            Obs.Metrics.incr c_scratch;
            k
        | None -> make_kernel instance
      in
      pool.entries <- (token, k) :: pool.entries;
      k

let attempt_kernel k strategy =
  Array.iter Packing.Bin.reset k.k_bins;
  Packing.Strategy.run ~cache:k.k_cache strategy ~bins:k.k_bins
    ~items:k.k_items

(* The fixed-yield probe oracle of one solve and its retirement hook: the
   probe-shared kernel by default, the naive fresh-allocation path under
   [~kernel:false] — the reference the differential tests diff against.
   Handed out raw to the batched solve driver ({!Batch}), which steps a
   {!Binary_search.plan} under {!Par.Scheduler} and retires the solve's
   kernels into the per-domain free pools once the request completes. *)
let batch_oracle ?(kernel = true) strategies instance =
  if kernel then begin
    let token = Atomic.fetch_and_add solve_tokens 1 in
    let packer yld =
      let k = kernel_for ~token instance in
      refill k yld;
      attempt_kernel k
    in
    (probe ~packer strategies, fun () -> retire_token token)
  end
  else
    (probe ~packer:(fun y s -> pack_at_yield s instance y) strategies,
     fun () -> ())

let evaluate instance placement =
  match Model.Placement.min_yield instance placement with
  | None -> None
  | Some y -> Some { placement; min_yield = y }

let finish instance = function
  | None -> None
  | Some (placement, _probed_yield) -> evaluate instance placement

(* Probe oracles are pure as observed from outside (the kernel's scratch
   is domain-local and every domain computes identical bits; the naive
   path allocates fresh items and bins per call), so a pool of size > 1
   can run the speculative multi-probe search and still return
   bit-identical results. *)
let search ?tolerance ?pool ?on_round oracle =
  match pool with
  | Some pool when Par.Pool.size pool > 1 ->
      Binary_search.maximize_par ?tolerance ?on_round ~pool oracle
  | Some _ | None -> Binary_search.maximize ?tolerance ?on_round oracle

let solve ?tolerance ?pool ?on_round ?kernel strategy instance =
  Obs.Trace.span "solve" ~args:[ ("strategy", Packing.Strategy.name strategy) ]
  @@ fun () ->
  let probe, _retire = batch_oracle ?kernel [ strategy ] instance in
  search ?tolerance ?pool ?on_round probe |> finish instance

let solve_multi ?tolerance ?pool ?on_round ?kernel strategies instance =
  Obs.Trace.span "solve_multi"
    ~args:[ ("strategies", string_of_int (List.length strategies)) ]
  @@ fun () ->
  let probe, _retire = batch_oracle ?kernel strategies instance in
  search ?tolerance ?pool ?on_round probe |> finish instance
