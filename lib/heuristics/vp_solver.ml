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
  k_instance : Model.Instance.t;
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

let attempt_kernel k strategy =
  Array.iter Packing.Bin.reset k.k_bins;
  Packing.Strategy.run ~cache:k.k_cache strategy ~bins:k.k_bins
    ~items:k.k_items

(* Solve-owned kernel scratch (DESIGN.md §11, §16). The speculative
   search runs one solve's probes on several domains at once, so each
   domain that runs a probe of this solve gets its own kernel, built on
   its first probe. Only the owning domain ever pushes its entry, so the
   CAS retry loop never races two kernels for one domain; readers see
   either the list without their entry (and push one) or with it. The
   kernels die with the oracle closure — nothing outlives the solve, and
   concurrent solves never share scratch. *)
let kernel_here kernels instance =
  let self = Domain.self () in
  match List.assoc_opt self (Atomic.get kernels) with
  | Some k -> k
  | None ->
      let k = make_kernel instance in
      let rec push () =
        let seen = Atomic.get kernels in
        if not (Atomic.compare_and_set kernels seen ((self, k) :: seen)) then
          push ()
      in
      push ();
      k

(* The fixed-yield probe oracle of one solve and its retirement hook: the
   probe-shared kernel by default, the naive fresh-allocation path under
   [~kernel:false] — the reference the differential tests diff against.
   Handed out raw to the batched solve driver ({!Batch}), which steps a
   {!Binary_search.plan} under {!Par.Scheduler} and retires the oracle
   once the request completes, dropping its kernels. *)
let batch_oracle ?(kernel = true) strategies instance =
  if kernel then begin
    let kernels : (Domain.id * kernel) list Atomic.t = Atomic.make [] in
    let packer yld =
      let k = kernel_here kernels instance in
      refill k yld;
      attempt_kernel k
    in
    (probe ~packer strategies, fun () -> Atomic.set kernels [])
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

(* Probe oracles are pure as observed from outside (each domain probes
   through its own kernel and every kernel computes identical bits; the naive
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
