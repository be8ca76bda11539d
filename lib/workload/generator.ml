type config = {
  hosts : int;
  services : int;
  cov : float;
  slack : float;
  cpu_homogeneous : bool;
  mem_homogeneous : bool;
}

let default =
  {
    hosts = 64;
    services = 100;
    cov = 0.5;
    slack = 0.4;
    cpu_homogeneous = false;
    mem_homogeneous = false;
  }

let validate config =
  if config.hosts <= 0 then invalid_arg "Generator: hosts must be positive";
  if config.services <= 0 then
    invalid_arg "Generator: services must be positive";
  (* Comparisons that NaN fails: a NaN cov would otherwise pass and
     build a homogeneous platform without a word. *)
  if not (Float.is_finite config.cov && config.cov >= 0.) then
    invalid_arg "Generator: cov must be finite and non-negative";
  if not (config.slack > 0. && config.slack < 1.) then
    invalid_arg "Generator: slack must be in (0, 1)"

let capacity_median = 0.5
let capacity_min = 0.001
let capacity_max = 1.0
let cores_per_node = 4

let sample_capacity rng cov =
  if cov <= 0. then capacity_median
  else
    Prng.Rng.truncated_normal rng ~mean:capacity_median
      ~stddev:(cov *. capacity_median) ~lo:capacity_min ~hi:capacity_max

let generate_platform ~rng config =
  Array.init config.hosts (fun id ->
      let cpu =
        if config.cpu_homogeneous then capacity_median
        else sample_capacity rng config.cov
      in
      let mem =
        if config.mem_homogeneous then capacity_median
        else sample_capacity rng config.cov
      in
      Model.Node.make_cores ~id ~cores:cores_per_node ~cpu ~mem)

let generate_services ~rng config nodes =
  let tasks = Array.init config.services (fun _ -> Google_trace.sample rng) in
  let total_cpu =
    Array.fold_left
      (fun acc (n : Model.Node.t) ->
        acc +. Vec.Vector.get n.capacity.Vec.Epair.aggregate 0)
      0. nodes
  in
  let total_mem =
    Array.fold_left
      (fun acc (n : Model.Node.t) ->
        acc +. Vec.Vector.get n.capacity.Vec.Epair.aggregate 1)
      0. nodes
  in
  (* CPU needs scale so total need equals total capacity (paper §4). *)
  let total_cores =
    Array.fold_left (fun acc t -> acc + t.Google_trace.cores) 0 tasks
  in
  let per_core_need = total_cpu /. float_of_int total_cores in
  (* Memory requirements scale so a successful allocation leaves exactly
     [slack] of total memory free. *)
  let raw_mem =
    Array.fold_left (fun acc t -> acc +. t.Google_trace.memory_fraction) 0.
      tasks
  in
  let mem_factor = (1. -. config.slack) *. total_mem /. raw_mem in
  Array.mapi
    (fun id (t : Google_trace.task) ->
      Model.Service.make_2d ~id
        ~mem_req:(mem_factor *. t.memory_fraction)
        ~cpu_need:
          (per_core_need, per_core_need *. float_of_int t.cores)
        ())
    tasks

let generate ?rng config =
  validate config;
  let rng = match rng with Some r -> r | None -> Prng.Rng.create ~seed:42 in
  let nodes = generate_platform ~rng config in
  let services = generate_services ~rng config nodes in
  Model.Instance.v ~nodes ~services
