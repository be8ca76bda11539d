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
   bill). Every count is the sequential probe's — the attempts up to and
   including the winner — whichever domains ran them, so totals are
   deterministic for a fixed amount of performed work. *)
let c_oracle = Obs.Metrics.counter "vp_solver.oracle_calls"
let c_feasible = Obs.Metrics.counter "vp_solver.oracle_feasible"
let c_attempts = Obs.Metrics.counter "vp_solver.strategy_attempts"
let c_item_hits = Obs.Metrics.counter "vp_solver.items_cache_hits"
let h_win_index = Obs.Metrics.histogram "vp_solver.strategies_per_win"

let win_counter strategy =
  Obs.Metrics.counter ("vp_solver.win." ^ Packing.Strategy.name strategy)

let probe_args y = [ ("y", Printf.sprintf "%.6f" y) ]

let first_success n f =
  let rec scan i =
    if i >= n then None
    else match f i with Some v -> Some (i, v) | None -> scan (i + 1)
  in
  scan 0

(* [repeats.(k)]: how many of the first [k] strategies reuse the item
   order of an earlier one — the sort-memo hits of a sequential kernel
   probe that stops after [k] attempts (its memo starts empty each
   probe). Pooled attempts spread over per-domain memos whose physical
   hits depend on who claimed what, so the counter takes this value. *)
let memo_repeats strategies =
  let n = Array.length strategies in
  let repeats = Array.make (n + 1) 0 in
  let seen = ref [] in
  Array.iteri
    (fun i (s : Packing.Strategy.t) ->
      let hit = List.mem s.item_order !seen in
      if not hit then seen := s.item_order :: !seen;
      repeats.(i + 1) <- (repeats.(i) + if hit then 1 else 0))
    strategies;
  repeats

(* One fixed-yield probe: the first strategy, in list order, that packs.
   [attempt y s] runs one attempt on the calling domain. With a pool of
   size > 1 the attempts run as [Par.Pool.find_first], whose winner and
   merged counts are the sequential scan's; the attempts it ran past the
   winner go on the probe span ([off_path]) with [trace_args y], never
   into the metrics. *)
let probe ?pool ~attempt ~repeats ~trace_args strategies y =
  let n = Array.length strategies in
  let ran = Atomic.make 0 and tried = ref 0 in
  let try_at i =
    Atomic.incr ran;
    attempt y strategies.(i)
  in
  Obs.Trace.span "probe" ~args:(probe_args y)
    ~late:(fun () ->
      ("off_path", string_of_int (Atomic.get ran - !tried)) :: trace_args y)
  @@ fun () ->
  Obs.Metrics.incr c_oracle;
  let found =
    match pool with
    | Some pool -> Par.Pool.find_first pool n try_at
    | None -> first_success n try_at
  in
  tried := (match found with Some (i, _) -> i + 1 | None -> n);
  Obs.Metrics.add c_attempts !tried;
  Obs.Metrics.add c_item_hits repeats.(!tried);
  match found with
  | None -> None
  | Some (i, placement) ->
      let strategy = strategies.(i) in
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr c_feasible;
        Obs.Metrics.incr (win_counter strategy);
        Obs.Metrics.observe h_win_index (i + 1)
      end;
      Obs.Trace.instant "win"
        ~args:(("strategy", Packing.Strategy.name strategy) :: probe_args y);
      Some placement

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

(* Solve-owned kernel scratch (DESIGN.md §11, §16). A pooled probe runs
   one solve's strategy attempts on several domains at once, so each
   domain that runs an attempt of this solve gets its own kernel, built
   on its first attempt. Only the owning domain ever pushes its entry, so
   the CAS retry loop never races two kernels for one domain; readers see
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
   With a [pool], each probe's attempts run over it. The trace records
   each domain's physical sort-memo hits at the probe's yield as
   [memo_hits] ("domain:hits", by domain id). *)
let oracle ?pool ?(kernel = true) strategies instance =
  let strategies = Array.of_list strategies in
  if kernel then begin
    let kernels : (Domain.id * kernel) list Atomic.t = Atomic.make [] in
    let attempt yld strategy =
      let k = kernel_here kernels instance in
      refill k yld;
      attempt_kernel k strategy
    in
    let trace_args yld =
      let hits =
        List.filter_map
          (fun ((d : Domain.id), k) ->
            if k.k_yield = yld then
              Some ((d :> int), Packing.Strategy.cache_hits k.k_cache)
            else None)
          (Atomic.get kernels)
      in
      [ ( "memo_hits",
          String.concat " "
            (List.map
               (fun (d, h) -> Printf.sprintf "%d:%d" d h)
               (List.sort compare hits)) ) ]
    in
    ( probe ?pool ~attempt ~repeats:(memo_repeats strategies) ~trace_args
        strategies,
      fun () -> Atomic.set kernels [] )
  end
  else
    ( probe ?pool
        ~attempt:(fun y s -> pack_at_yield s instance y)
        ~repeats:(Array.make (Array.length strategies + 1) 0)
        ~trace_args:(fun _ -> [])
        strategies,
      fun () -> () )

(* The batched driver ({!Batch}) runs each probe as one scheduler task on
   the scheduler's pool, where a nested pool call is forbidden, so its
   probes scan their strategies sequentially. *)
let batch_oracle ?kernel strategies instance = oracle ?kernel strategies instance

let evaluate instance placement =
  match Model.Placement.min_yield instance placement with
  | None -> None
  | Some y -> Some { placement; min_yield = y }

let finish instance = function
  | None -> None
  | Some (placement, _probed_yield) -> evaluate instance placement

(* The yield search is the sequential bisection; a pool of size > 1
   parallelizes the strategy attempts inside each probe, and the probe's
   winner is the sequential one, so the result is bit-identical. *)
let solve_multi ?tolerance ?pool ?on_round ?kernel strategies instance =
  Obs.Trace.span "solve_multi"
    ~args:[ ("strategies", string_of_int (List.length strategies)) ]
  @@ fun () ->
  let probe, _retire = oracle ?pool ?kernel strategies instance in
  Binary_search.maximize ?tolerance ?on_round probe |> finish instance

let solve ?tolerance ?on_round ?kernel strategy instance =
  Obs.Trace.span "solve" ~args:[ ("strategy", Packing.Strategy.name strategy) ]
  @@ fun () ->
  let probe, _retire = oracle ?kernel [ strategy ] instance in
  Binary_search.maximize ?tolerance ?on_round probe |> finish instance
