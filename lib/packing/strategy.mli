(** Strategy enumeration and runner.

    A strategy is an algorithm (First-Fit, Best-Fit, Permutation-Pack /
    Choose-Pack), an item-sorting order, a bin-sorting order and a variant
    flag. The homogeneous variant ([Vp], paper §3.5.1–3.5.3) never sorts
    bins and ranks Best-Fit bins by load; the heterogeneous variant ([Hvp],
    §3.5.4) sorts bins by capacity for First-Fit / Permutation-Pack, and
    ranks by remaining capacity for Best-Fit and for Permutation-Pack's
    per-bin dimension ordering.

    Counting as the paper does: METAVP tries the 33 VP strategies
    (3 algorithms x 11 item orders); METAHVP the 253 HVP strategies
    (11 Best-Fit + 2 x 11 x 11 for FF/PP); METAHVPLIGHT the pruned 60
    (4 Best-Fit + 2 x 4 x 7). *)

type algo =
  | First_fit
  | Best_fit
  | Permutation_pack of { flavour : Permutation_pack.flavour;
                          window : int option }

type variant = Vp | Hvp

type t = {
  algo : algo;
  item_order : Vec.Metric.order;
  bin_order : Vec.Metric.order;  (** ignored by Best-Fit and by [Vp] *)
  variant : variant;
}

type cache
(** Probe-shared sort memos: each distinct item-sort order is computed
    once per probe (invalidate with {!cache_new_probe} when item demands
    change), each distinct bin-sort order once per cache lifetime (bin
    capacities never change), and Permutation-Pack selection runs on a
    {!Permutation_pack.scratch} whose per-item demand permutations are
    likewise memoized per probe. The memoized arrays alias the caller's
    item and bin records, so a cache must only ever be used with the one
    item/bin pair it first saw, from one domain at a time. *)

val cache : unit -> cache
(** A fresh, empty memo table. *)

val cache_new_probe : cache -> unit
(** Drop the item-order memos (call after refilling item demands for a new
    probe); bin-order memos are kept. *)

val cache_hits : cache -> int
(** Item-order memo hits since the last {!cache_new_probe}. *)

val run : ?cache:cache -> t -> bins:Bin.t array -> items:Item.t array ->
  int array option
(** Execute one strategy on fresh copies of nothing — [bins] are mutated.
    Items must carry dense ids [0 .. n-1]; on success the result maps item
    id to bin id. Callers should pass freshly created (or {!Bin.reset})
    bins. With [cache], item/bin sort orders are memoized as documented on
    {!type-cache}; results are bit-identical with and without it. *)

val assignment : bins:Bin.t array -> n_items:int -> int array
(** Read the item-to-bin assignment out of packed bins (helper shared with
    tests). *)

val vp_all : t list
(** The 33 homogeneous strategies of METAVP. *)

val hvp_all : t list
(** The 253 heterogeneous strategies of METAHVP. *)

val hvp_light : t list
(** The 60 heterogeneous strategies of METAHVPLIGHT (paper §5.1). *)

val name : t -> string
(** E.g. ["HVP-PP(DMAX items, ASUM bins)"]. *)
