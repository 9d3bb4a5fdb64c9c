(** Exact rational certification of mapped configurations — the one
    checker of constraints (1)–(10).

    Rounding moves a continuous optimum onto the discrete grids, and
    floating-point re-verification would carry the very rounding error
    the check is guarding against.  This module rebuilds the SRDF
    constraint graph of the {e rounded} mapping in exact rational
    arithmetic (ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β are exact rationals
    once β is a float) and decides constraints (1)–(10) with no
    tolerance at all: a periodic admissible schedule with period µ via
    exact Bellman–Ford, processor capacity including the scheduler
    overhead, memory pre-reservation, latency and buffer bounds.  Every
    [verification] / [violations] value of the library derives from
    its verdict ({!violations}).

    The verdict is machine-checkable either way: [Certified] carries
    the exact start-time potentials (substituting them into every
    constraint verifies the certificate by rational evaluation alone),
    [Refuted] carries every violated constraint and positive-weight
    cycle with its exact excess. *)

type witness = {
  starts : (string * Exact.Rat.t) list;
      (** Exact start time per SRDF actor ("task.1"/"task.2"),
          concatenated over all task graphs. *)
}

type refutation =
  | Violated of Violation.t
  | Positive_cycle of {
      graph : string;
      period : float;  (** the graph's required period µ *)
      actors : string list;  (** SRDF actors along the cycle. *)
      excess : Exact.Rat.t;
          (** Exact cycle weight: how far the cycle overshoots the
              period budget per iteration. *)
    }

(** [Refuted] lists every refutation in check order — budgets, then
    per graph throughput and latency, processors, memories, buffer
    bounds — and is never empty. *)
type t = Certified of witness | Refuted of refutation list

(** [check cfg mapped] certifies or refutes the mapped configuration.
    Never raises on non-finite numbers: a non-finite budget refutes with
    {!Violation.Non_finite}, an out-of-range one with
    {!Violation.Budget_range}, and the graph holding such a task is not
    Bellman–Forded (its SRDF is undefined). *)
val check : Taskgraph.Config.t -> Taskgraph.Config.mapped -> t

val certified : t -> bool

(** [violations t] is the certificate as structured violations, empty
    iff [t] is [Certified]; a positive cycle becomes
    {!Violation.Throughput} of its graph. *)
val violations : t -> Violation.t list

(** [trace obs t] emits [t]'s {!Obs.Trace.Certificate} verdict event
    on [obs], if any. *)
val trace : Obs.Ctx.t option -> t -> unit

(** One-line rendering: ["ok (exact, N start times)"] or
    ["refuted: ..."], several refutations joined by ["; "]. *)
val summary : t -> string

val pp : Format.formatter -> t -> unit
