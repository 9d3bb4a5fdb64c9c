(** Conservative rounding of continuous optima onto the discrete grids:
    budgets onto multiples of the allocation granularity
    [β = g·⌈β′/g⌉], buffer capacities onto integer container counts
    [γ = ι + ⌈δ′⌉].

    Lives below both {!Mapping} and {!Two_phase} so either flow (and
    the recovery fallback from one to the other) can share the exact
    same grid semantics. *)

(** [round_eps] is the snap tolerance: a continuous value within it of
    a grid point is snapped down instead of rounded a whole granule up.
    It matches the solver accuracy (1e-6). *)
val round_eps : float

(** Raised (instead of rounding garbage) when a solver output reaching
    the grid is NaN or infinite; [what] is ["budget"] or
    ["buffer space"]. *)
exception Non_finite of { what : string; value : float }

val round_budget_eps : eps:float -> granularity:float -> float -> float
val round_capacity_eps : eps:float -> initial_tokens:int -> float -> int

(** [round_budget ~granularity beta'] is [g·⌈β′/g⌉] with the
    {!round_eps} snap. *)
val round_budget : granularity:float -> float -> float

(** [round_capacity ~initial_tokens delta'] is [max 1 (ι + ⌈δ′⌉)] with
    the same snap. *)
val round_capacity : initial_tokens:int -> float -> int

(** [objective cfg mapped] is Objective (5) on a rounded mapping:
    weighted budgets plus weighted containers beyond the initially
    filled ones.  The joint, two-phase and SLP flows all report their
    rounded objective through it. *)
val objective : Taskgraph.Config.t -> Taskgraph.Config.mapped -> float
