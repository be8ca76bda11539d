(* Deterministic batched solve driver (DESIGN.md §16).

   N concurrent solve requests share one domain pool: each global round
   polls every live request — in arrival-index order — for the tasks it
   wants evaluated next, concatenates them into a single [Pool.map]
   round, and lets the requests consume their results before the next
   poll. Fairness is round-robin by construction (request i's round-r
   tasks always precede request j's for i < j), and determinism follows
   from the requests themselves: each one's task points and state
   transitions are a pure function of its own results, never of the
   interleaving, so the batched run is bit-identical to running the
   requests back-to-back.

   Tasks are [unit -> unit] thunks that store their result into
   request-local buffers; [Pool.map]'s completion barrier orders those
   writes before the next [step] call reads them. *)

type round = (unit -> unit) array

type request = unit -> round option

type t = {
  pool : Pool.t;
  mutable live : int;
      (* requests not yet finished in the current [run]; 1 when idle so
         occupancy-derived shares degenerate to the standalone case *)
}

let c_requests = Obs.Metrics.counter "scheduler.requests"
let c_rounds = Obs.Metrics.counter "scheduler.rounds_interleaved"

let create ~pool = { pool; live = 1 }

let pool t = t.pool

let occupancy t = t.live

let run t requests =
  let n = Array.length requests in
  if n > 0 then begin
    Obs.Metrics.add c_requests n;
    let finished = Array.make n false in
    let remaining = ref n in
    Fun.protect ~finally:(fun () -> t.live <- 1) @@ fun () ->
    while !remaining > 0 do
      (* Occupancy is sampled once per round, before any step runs, so
         every request's depth policy sees the same (deterministic)
         value whatever order requests finish in. *)
      t.live <- !remaining;
      let batches = ref [] in
      for i = 0 to n - 1 do
        if not finished.(i) then
          match requests.(i) () with
          | None ->
              finished.(i) <- true;
              decr remaining
          | Some tasks -> batches := tasks :: !batches
      done;
      let tasks = Array.concat (List.rev !batches) in
      if Array.length tasks > 0 then begin
        Obs.Metrics.incr c_rounds;
        ignore (Pool.map t.pool tasks (fun task -> task ()))
      end
    done
  end
