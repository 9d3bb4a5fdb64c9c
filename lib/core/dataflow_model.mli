(** Task graph → SRDF construction (Section II-C of the paper).

    Each task [w] becomes a two-actor dataflow component:

    {v
        ρ(v1) = ̺(π(w)) − β(w)          (waiting for the TDM window)
        ρ(v2) = ̺(π(w))·χ(w) / β(w)     (processing under the budget)
        v1 → v2 with 0 tokens, v2 → v2 self-loop with 1 token
    v}

    Each buffer [b] from [wa] to [wb] becomes a pair of opposite
    queues: the data queue [va2 → vb1] carrying [ι(b)] initial tokens
    and the space queue [vb2 → va1] carrying [γ(b) − ι(b)] initially
    empty containers.  Wiggers et al. (EMSOFT 2009) prove this model
    conservative for budget schedulers, so a PAS of the SRDF graph with
    period [µ(T)] certifies the task graph's throughput. *)

type t = {
  srdf : Dataflow.Srdf.t;
  actor1 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
  actor2 : Taskgraph.Config.task -> Dataflow.Srdf.actor;
  self_edge : Taskgraph.Config.task -> Dataflow.Srdf.edge;
  transition_edge : Taskgraph.Config.task -> Dataflow.Srdf.edge;
      (** the zero-token [v1 → v2] queue (queue set [E1]) *)
  data_edge : Taskgraph.Config.buffer -> Dataflow.Srdf.edge;
  space_edge : Taskgraph.Config.buffer -> Dataflow.Srdf.edge;
}

(** [build cfg g ~budget ~capacity] constructs the SRDF graph of task
    graph [g] for the given budgets (Mcycles) and buffer capacities
    (containers).
    @raise Invalid_argument if a budget is not in (0, ̺(π(w))] or a
    capacity is below the buffer's initially-filled containers. *)
val build :
  Taskgraph.Config.t ->
  Taskgraph.Config.graph ->
  budget:(Taskgraph.Config.task -> float) ->
  capacity:(Taskgraph.Config.buffer -> int) ->
  t

(** [throughput_ok cfg g mapped] checks, in floating point, that the
    mapped budgets and capacities admit a PAS with period [µ(g)] — for
    slack searches; {!Certify.check} decides constraints (1)–(10). *)
val throughput_ok :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  bool

(** [min_feasible_period cfg g mapped] is the smallest period the
    mapped graph can sustain (its SRDF maximum cycle ratio), useful for
    reporting slack; [None] when the graph deadlocks. *)
val min_feasible_period :
  Taskgraph.Config.t -> Taskgraph.Config.graph -> Taskgraph.Config.mapped ->
  float option
