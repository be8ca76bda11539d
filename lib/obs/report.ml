(* Bench-history regression observatory.

   bench/main.ml archives every run as bench/history/<git-rev>-<n>.json.
   This module reads those archives back, aligns the per-block metrics
   across revisions, and renders per-metric sparkline tables — plus a
   regression gate over the *deterministic counter* metrics (simplex
   pivots, bins examined per event, oracle calls, ...). Wall-clock
   seconds are displayed but never gated: they depend on the host, while
   the counters are pure functions of the code, so a counter regression
   is a real algorithmic regression whatever machine CI runs on.

   Determinism: revisions are ordered by (earliest mtime of the rev's
   files, rev name) and each rev's value comes from its highest-numbered
   file, so rendering the same directory twice is byte-identical. *)

type t = {
  revs : string array; (* chronological, oldest first *)
  metrics : (string * float option array) list; (* sorted by key *)
}

type failure = {
  metric : string;
  base : float;
  latest : float;
  pct : float; (* regression, percent; infinity when base = 0 *)
}

(* ---- Metric extraction ---------------------------------------------- *)

(* Deterministic lower-is-better counters: the gate's jurisdiction. *)
let gated_suffixes =
  [
    ".cold_pivots";
    ".warm_pivots";
    ".bins_per_event";
    ".parallel_rounds";
    ".packing.bins_examined";
    ".vp_solver.oracle_calls";
    ".vp_solver.strategy_attempts";
    ".binary_search.rounds";
    ".rounds_interleaved";
  ]

let gated key =
  List.exists (fun s -> String.ends_with ~suffix:s key) gated_suffixes

(* Per-algorithm Obs counters worth tracking across revs (the full
   snapshot would swamp the table with noise like per-strategy wins). *)
let obs_counters =
  [
    "packing.bins_examined";
    "vp_solver.oracle_calls";
    "vp_solver.strategy_attempts";
    "binary_search.rounds";
  ]

let collect (j : Json.t) =
  let out = ref [] in
  let add key v = out := (key, v) :: !out in
  let num field e = Option.bind (Json.member field e) Json.to_num in
  let str field e = Option.bind (Json.member field e) Json.to_str in
  let add_fields prefix fields e =
    List.iter
      (fun f ->
        match num f e with
        | Some v -> add (prefix ^ "." ^ f) v
        | None -> ())
      fields
  in
  let block name = Option.value ~default:Json.Null (Json.member name j) in
  (* lp: warm-start probe instances and solver comparisons *)
  let lp = block "lp" in
  List.iter
    (fun e ->
      match str "instance" e with
      | None -> ()
      | Some inst ->
          add_fields
            (Printf.sprintf "lp.probe[%s]" inst)
            [ "cold_pivots"; "warm_pivots"; "warm_starts"; "pivot_ratio" ]
            e)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "probe" lp)));
  List.iter
    (fun e ->
      match str "label" e with
      | None -> ()
      | Some label ->
          add_fields (Printf.sprintf "lp.solver[%s]" label) [ "speedup" ] e)
    (Json.to_list (Option.value ~default:Json.Null (Json.member "solver" lp)));
  (* kernel: probe-shared packing kernel speedups *)
  List.iter
    (fun e ->
      match (str "algorithm" e, num "domains" e) with
      | Some algo, Some d ->
          add_fields
            (Printf.sprintf "kernel.%s.d%d" algo (int_of_float d))
            [ "speedup" ] e
      | _ -> ())
    (Json.to_list (block "kernel"));
  (* probe_par: speculative probe parallelism *)
  List.iter
    (fun e ->
      match (str "algorithm" e, num "domains" e) with
      | Some algo, Some d ->
          add_fields
            (Printf.sprintf "probe_par.%s.d%d" algo (int_of_float d))
            [ "parallel_rounds"; "sequential_rounds"; "round_ratio" ]
            e
      | _ -> ())
    (Json.to_list (block "probe_par"));
  (* online: per-policy incremental placement efficiency *)
  List.iter
    (fun e ->
      match (str "policy" e, num "hosts" e) with
      | Some policy, Some h ->
          add_fields
            (Printf.sprintf "online.%s.h%d" policy (int_of_float h))
            [
              "bins_per_event";
              "repairs";
              "fallbacks";
              "admitted";
              "mean_min_yield";
            ]
            e
      | _ -> ())
    (Json.to_list (block "online"));
  (* batch: multi-tenant scheduler round counts — deterministic at every
     (tenants, domains) combo, since speculation depth is a pure function
     of pool size and live-request count. *)
  List.iter
    (fun e ->
      match (num "tenants" e, num "domains" e) with
      | Some t, Some d ->
          add_fields
            (Printf.sprintf "batch.t%d.d%d" (int_of_float t) (int_of_float d))
            [
              "round_speedup";
              "throughput_speedup";
              "serial_rounds";
              "rounds_interleaved";
              "speculative_waste";
            ]
            e
      | _ -> ())
    (Json.to_list (block "batch"));
  (* obs: per-algorithm counter snapshots and the metrics overhead ratio *)
  let obs = block "obs" in
  List.iter
    (fun e ->
      match str "algorithm" e with
      | None -> ()
      | Some algo ->
          let counters =
            Option.value ~default:Json.Null (Json.member "metrics" e)
            |> Json.member "counters"
            |> Option.value ~default:Json.Null
          in
          List.iter
            (fun c ->
              match Option.bind (Json.member c counters) Json.to_num with
              | Some v -> add (Printf.sprintf "obs.%s.%s" algo c) v
              | None -> ())
            obs_counters)
    (Json.to_list
       (Option.value ~default:Json.Null (Json.member "per_algorithm" obs)));
  (match Json.member "overhead" obs with
  | Some ov -> add_fields "obs.overhead" [ "enabled_over_disabled" ] ov
  | None -> ());
  (* sim *)
  let sim = block "sim" in
  (match Option.bind (Json.member "reeval_skips" sim) Json.to_num with
  | Some v -> add "sim.reeval_skips" v
  | None -> ());
  List.rev !out

(* ---- Loading -------------------------------------------------------- *)

(* bench/history/<rev>-<n>.json; a basename without the -<n> suffix is
   treated as its own rev at n = 0, so hand-dropped files still load. *)
let rev_of_basename base =
  match String.rindex_opt base '-' with
  | Some i -> (
      match int_of_string_opt (String.sub base (i + 1) (String.length base - i - 1)) with
      | Some n -> (String.sub base 0 i, n)
      | None -> (base, 0))
  | None -> (base, 0)

let load ~dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | names -> (
      let files =
        Array.to_list names
        |> List.filter (fun f -> Filename.check_suffix f ".json")
      in
      if files = [] then
        Error (Printf.sprintf "%s: no bench history (*.json) files" dir)
      else
        let by_rev = Hashtbl.create 8 in
        List.iter
          (fun f ->
            let rev, n = rev_of_basename (Filename.chop_suffix f ".json") in
            let path = Filename.concat dir f in
            let mtime = (Unix.stat path).Unix.st_mtime in
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_rev rev)
            in
            Hashtbl.replace by_rev rev ((n, mtime, path) :: prev))
          files;
        let revs =
          Hashtbl.fold
            (fun rev entries acc ->
              let first_seen =
                List.fold_left
                  (fun acc (_, m, _) -> Float.min acc m)
                  infinity entries
              in
              let _, _, best =
                List.fold_left
                  (fun ((bn, _, _) as b) ((n, _, _) as e) ->
                    if n > bn then e else b)
                  (List.hd entries) (List.tl entries)
              in
              (first_seen, rev, best) :: acc)
            by_rev []
          |> List.sort compare
        in
        let parsed =
          List.map
            (fun (_, rev, path) ->
              let ic = open_in_bin path in
              let len = in_channel_length ic in
              let body = really_input_string ic len in
              close_in ic;
              match Json.parse body with
              | Ok j -> Ok (rev, collect j)
              | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
            revs
        in
        match
          List.find_map (function Error e -> Some e | Ok _ -> None) parsed
        with
        | Some e -> Error e
        | None ->
            let parsed =
              List.filter_map
                (function Ok x -> Some x | Error _ -> None)
                parsed
            in
            let revs = Array.of_list (List.map fst parsed) in
            let keys =
              List.concat_map (fun (_, ms) -> List.map fst ms) parsed
              |> List.sort_uniq compare
            in
            let metrics =
              List.map
                (fun key ->
                  ( key,
                    Array.of_list
                      (List.map
                         (fun (_, ms) -> List.assoc_opt key ms)
                         parsed) ))
                keys
            in
            Ok { revs; metrics })

let revs t = Array.copy t.revs

(* ---- Rendering ------------------------------------------------------ *)

let spark_glyphs = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline values =
  let present = Array.to_list values |> List.filter_map Fun.id in
  let buf = Buffer.create 16 in
  (match present with
  | [] -> Array.iter (fun _ -> Buffer.add_string buf "·") values
  | _ ->
      let lo = List.fold_left Float.min infinity present in
      let hi = List.fold_left Float.max neg_infinity present in
      Array.iter
        (function
          | None -> Buffer.add_string buf "·"
          | Some v ->
              let i =
                if hi <= lo then 3
                else
                  let f = (v -. lo) /. (hi -. lo) in
                  Int.min 7 (int_of_float (f *. 8.))
              in
              Buffer.add_string buf spark_glyphs.(i))
        values);
  Buffer.contents buf

let fmt_value v = Printf.sprintf "%.6g" v

let find_rev t rev =
  let found = ref (-1) in
  Array.iteri (fun i r -> if r = rev then found := i) t.revs;
  if !found < 0 then
    Error
      (Printf.sprintf "baseline rev %s not in history (have: %s)" rev
         (String.concat " " (Array.to_list t.revs)))
  else Ok !found

let delta_pct ~base ~latest =
  if base = 0. then if latest = 0. then Some 0. else None
  else Some ((latest -. base) /. Float.abs base *. 100.)

let render ?baseline t =
  let base_rev =
    match baseline with Some r -> r | None -> t.revs.(0)
  in
  match find_rev t base_rev with
  | Error e -> Error e
  | Ok bi ->
      let li = Array.length t.revs - 1 in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (Printf.sprintf
           "bench history observatory — %d revs, baseline %s, latest %s\n"
           (Array.length t.revs) base_rev t.revs.(li));
      Buffer.add_string buf
        (Printf.sprintf "revs (oldest first): %s\n\n"
           (String.concat " " (Array.to_list t.revs)));
      let key_w =
        List.fold_left
          (fun acc (k, _) ->
            Int.max acc (String.length k + if gated k then 8 else 0))
          6 t.metrics
      in
      let trend_w = Int.max 5 (Array.length t.revs) in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %-*s  %10s  %10s  %9s\n" key_w "metric" trend_w
           "trend" "baseline" "latest" "delta");
      List.iter
        (fun (key, values) ->
          let label = if gated key then key ^ "  [gated]" else key in
          let cell = function Some v -> fmt_value v | None -> "-" in
          let delta =
            match (values.(bi), values.(li)) with
            | Some b, Some l -> (
                match delta_pct ~base:b ~latest:l with
                | Some p -> Printf.sprintf "%+.1f%%" p
                | None -> "new")
            | _ -> "n/a"
          in
          (* The sparkline's glyphs are multi-byte; pad by sample count,
             not byte length. *)
          let trend = sparkline values in
          let trend_pad =
            String.make (Int.max 0 (trend_w - Array.length values)) ' '
          in
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %s%s  %10s  %10s  %9s\n" key_w label trend
               trend_pad
               (cell values.(bi))
               (cell values.(li))
               delta))
        t.metrics;
      Ok (Buffer.contents buf)

(* ---- Regression gate ------------------------------------------------ *)

let gate ~baseline ~max_regression_pct t =
  match find_rev t baseline with
  | Error e -> Error e
  | Ok bi ->
      let li = Array.length t.revs - 1 in
      let failures =
        List.filter_map
          (fun (key, values) ->
            if not (gated key) then None
            else
              match (values.(bi), values.(li)) with
              | Some base, Some latest ->
                  let bad =
                    if base = 0. then latest > 0.
                    else latest > base *. (1. +. (max_regression_pct /. 100.))
                  in
                  if bad then
                    Some
                      {
                        metric = key;
                        base;
                        latest;
                        pct =
                          (if base = 0. then infinity
                           else (latest -. base) /. base *. 100.);
                      }
                  else None
              | _ -> None)
          t.metrics
      in
      Ok failures

let render_failures fs =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "REGRESSION %s: %s -> %s (%s)\n" f.metric
           (fmt_value f.base) (fmt_value f.latest)
           (if f.pct = infinity then "was 0"
            else Printf.sprintf "%+.1f%%" f.pct)))
    fs;
  Buffer.contents buf
