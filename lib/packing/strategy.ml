type algo =
  | First_fit
  | Best_fit
  | Permutation_pack of { flavour : Permutation_pack.flavour;
                          window : int option }

type variant = Vp | Hvp

type t = {
  algo : algo;
  item_order : Vec.Metric.order;
  bin_order : Vec.Metric.order;
  variant : variant;
}

let assignment ~bins ~n_items =
  let assign = Array.make n_items (-1) in
  Array.iter
    (fun (bin : Bin.t) ->
      List.iter (fun item_id -> assign.(item_id) <- bin.Bin.id) bin.contents)
    bins;
  assign

(* Probe-shared sort memos. Most of the 253 HVP strategies differ only in
   packing rule or bin order, not item measure, so within one fixed-yield
   probe each distinct sorted item order need only be computed once. Bin
   orders sort by capacity, which never changes, so those memos survive
   for the lifetime of the cache. The memoized arrays alias the caller's
   item/bin records (the packing loops only read items and mutate bins in
   place), and are built by the exact [Vec.Metric.sort] the uncached path
   runs — same stable sort over the same values — so a cached run is
   bit-identical to an uncached one. [hits] counts item-order memo hits
   since the last [cache_new_probe]: a physical count, which depends on
   which attempts this cache saw, so it is not a metric. *)
type cache = {
  mutable sorted_items : (Vec.Metric.order * Item.t array) list;
  mutable sorted_bins : (Vec.Metric.order * Bin.t array) list;
  mutable hits : int;
  pp_scratch : Permutation_pack.scratch;
}

let cache () =
  { sorted_items = []; sorted_bins = []; hits = 0;
    pp_scratch = Permutation_pack.scratch () }

let cache_new_probe c =
  c.sorted_items <- [];
  c.hits <- 0;
  Permutation_pack.scratch_new_probe c.pp_scratch

let cache_hits c = c.hits

let items_in_order cache order items =
  match cache with
  | None -> Vec.Metric.sort order Item.size items
  | Some c -> (
      match List.assoc_opt order c.sorted_items with
      | Some sorted ->
          c.hits <- c.hits + 1;
          sorted
      | None ->
          let sorted = Vec.Metric.sort order Item.size items in
          c.sorted_items <- (order, sorted) :: c.sorted_items;
          sorted)

let bins_in_order cache order bins =
  match cache with
  | None -> Vec.Metric.sort order Bin.size bins
  | Some c -> (
      match List.assoc_opt order c.sorted_bins with
      | Some sorted -> sorted
      | None ->
          let sorted = Vec.Metric.sort order Bin.size bins in
          c.sorted_bins <- (order, sorted) :: c.sorted_bins;
          sorted)

let run ?cache:memo t ~bins ~items =
  let items = items_in_order memo t.item_order items in
  let bins =
    match (t.variant, t.algo) with
    | Vp, _ | _, Best_fit -> bins
    | Hvp, (First_fit | Permutation_pack _) ->
        bins_in_order memo t.bin_order bins
  in
  let ok =
    match t.algo with
    | First_fit -> Fit.first_fit ~bins ~items
    | Best_fit ->
        let rank =
          match t.variant with
          | Vp -> Fit.By_load
          | Hvp -> Fit.By_remaining
        in
        Fit.best_fit ~rank ~bins ~items
    | Permutation_pack { flavour; window } ->
        let ranking =
          match t.variant with
          | Vp -> Permutation_pack.By_load
          | Hvp -> Permutation_pack.By_remaining_capacity
        in
        let scratch = Option.map (fun c -> c.pp_scratch) memo in
        Permutation_pack.pack ~flavour ?window ~ranking ?scratch ~bins ~items
          ()
  in
  if ok then Some (assignment ~bins ~n_items:(Array.length items)) else None

let algos =
  [
    First_fit;
    Best_fit;
    Permutation_pack { flavour = Permutation_pack.Permutation; window = None };
  ]

let vp_all =
  List.concat_map
    (fun algo ->
      List.map
        (fun item_order ->
          { algo; item_order; bin_order = Vec.Metric.Unsorted; variant = Vp })
        Vec.Metric.all_orders)
    algos

let hvp_all =
  let best_fit =
    List.map
      (fun item_order ->
        { algo = Best_fit; item_order; bin_order = Vec.Metric.Unsorted;
          variant = Hvp })
      Vec.Metric.all_orders
  in
  let sorted_bins =
    List.concat_map
      (fun algo ->
        List.concat_map
          (fun item_order ->
            List.map
              (fun bin_order -> { algo; item_order; bin_order; variant = Hvp })
              Vec.Metric.all_orders)
          Vec.Metric.all_orders)
      [
        First_fit;
        Permutation_pack
          { flavour = Permutation_pack.Permutation; window = None };
      ]
  in
  best_fit @ sorted_bins

(* The pruned strategy subset identified in paper §5.1. *)
let light_item_orders =
  Vec.Metric.
    [
      Desc (Scalar Max);
      Desc (Scalar Sum);
      Desc (Scalar Max_difference);
      Desc (Scalar Max_ratio);
    ]

let light_bin_orders =
  Vec.Metric.
    [
      Asc Lex;
      Asc (Scalar Max);
      Asc (Scalar Sum);
      Desc (Scalar Max);
      Desc (Scalar Max_difference);
      Desc (Scalar Max_ratio);
      Unsorted;
    ]

let hvp_light =
  let best_fit =
    List.map
      (fun item_order ->
        { algo = Best_fit; item_order; bin_order = Vec.Metric.Unsorted;
          variant = Hvp })
      light_item_orders
  in
  let sorted_bins =
    List.concat_map
      (fun algo ->
        List.concat_map
          (fun item_order ->
            List.map
              (fun bin_order -> { algo; item_order; bin_order; variant = Hvp })
              light_bin_orders)
          light_item_orders)
      [
        First_fit;
        Permutation_pack
          { flavour = Permutation_pack.Permutation; window = None };
      ]
  in
  best_fit @ sorted_bins

let algo_name = function
  | First_fit -> "FF"
  | Best_fit -> "BF"
  | Permutation_pack { flavour = Permutation_pack.Permutation; window = None }
    ->
      "PP"
  | Permutation_pack { flavour = Permutation_pack.Permutation; window = Some w }
    ->
      Printf.sprintf "PP[w=%d]" w
  | Permutation_pack { flavour = Permutation_pack.Choose; window = None } ->
      "CP"
  | Permutation_pack { flavour = Permutation_pack.Choose; window = Some w } ->
      Printf.sprintf "CP[w=%d]" w

let name t =
  let prefix = match t.variant with Vp -> "VP" | Hvp -> "HVP" in
  match t.algo with
  | Best_fit ->
      Printf.sprintf "%s-%s(%s items)" prefix (algo_name t.algo)
        (Vec.Metric.order_to_string t.item_order)
  | First_fit | Permutation_pack _ ->
      if t.variant = Vp then
        Printf.sprintf "%s-%s(%s items)" prefix (algo_name t.algo)
          (Vec.Metric.order_to_string t.item_order)
      else
        Printf.sprintf "%s-%s(%s items, %s bins)" prefix (algo_name t.algo)
          (Vec.Metric.order_to_string t.item_order)
          (Vec.Metric.order_to_string t.bin_order)
