(* Wall-clock timing and order statistics shared by the driver and the
   layer replays. *)

(* Monotonic, nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let median_l l = median (Array.of_list l)

(* The highest percentile with at least 10 samples beyond it: the value at
   rank n-10 (1-based) of n ascending samples, and that percentile. With
   10 samples or fewer there is no such percentile; the maximum is
   returned as p100. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (nan, nan)
  else if n <= 10 then (s.(n - 1), 100.)
  else (s.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes
   them (its default "exclusive" method). *)
let quartiles values =
  let d = sorted values in
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((d.(j - 1) *. (4. -. delta)) +. (d.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Run [f] with [Obs.Metrics] enabled on fresh sinks and return its
   result with the counter snapshot. *)
let counting f =
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f in
  let snap = Obs.Metrics.snapshot () in
  Obs.Metrics.reset ();
  (r, Obs.Metrics.Snapshot.counter_value snap)
