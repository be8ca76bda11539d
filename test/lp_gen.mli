(** Seeded random-LP family generator for the differential test harness.

    Each family guarantees its feasibility class by construction (known
    witness point / explicit contradiction / explicit ray), so tests can
    assert solver verdicts without trusting either solver. Shared between
    the test suite and the bench [lp] section. Deterministic: generation is
    a pure function of the seed. *)

type family =
  | Feasible  (** interior witness, finite bounds — always [Optimal] *)
  | Infeasible  (** contains an explicit contradictory constraint pair *)
  | Unbounded
      (** feasible, with an unconstrained improving ray on the last
          variable *)
  | Degenerate
      (** feasible and bounded, with tight rows and zeroed witness
          coordinates forcing primal degeneracy *)
  | Banded
      (** as [Feasible], but each row's variables come from a narrow
          window sliding with the row index — banded bases, the sparse-LU
          sweet spot *)
  | Block_diag
      (** as [Feasible], but rows cycle through diagonal variable blocks
          — disconnected basis structure *)

val all_families : family list

val family_name : family -> string

val generate :
  ?density:float -> seed:int -> n_vars:int -> n_cons:int -> family -> Lp.Problem.t
(** Random LP of the given family. [density] (default 0.6) is the
    per-entry probability that a variable appears in a constraint row.
    [n_vars] must be at least 2. *)

val generate_milp :
  ?density:float -> seed:int -> n_vars:int -> n_cons:int -> unit -> Lp.Problem.t
(** Random bounded MILP, feasible by construction (integral witness, all
    variables integer with upper bounds in {1,2}) — small enough for the
    exhaustive-enumeration branch-and-bound cross-check. *)

val to_bytes : Lp.Problem.t -> string
(** Canonical lossless serialization (hex floats): two problems are equal
    iff their bytes are equal, making seed-determinism a string compare. *)
