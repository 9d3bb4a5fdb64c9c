(** Human-readable report of a solved mapping.

    Collects in one place everything a designer asks of a mapping:
    the budgets and capacities themselves, per-processor TDM
    utilisation, per-memory occupancy, end-to-end latency per chain
    graph, throughput slack and the critical cycle.  Rendered as plain
    text by the CLI's [report] subcommand. *)

type processor_load = {
  proc : Taskgraph.Config.proc;
  allocated : float;  (** Σ budgets + overhead, Mcycles per interval *)
  utilisation : float;  (** allocated / replenishment *)
}

type memory_load = {
  memory : Taskgraph.Config.memory;
  occupied : int;  (** Σ γ·ζ over the buffers placed there *)
  fraction : float;  (** occupied / capacity; 0 for a 0-capacity memory *)
}

type graph_report = {
  graph : Taskgraph.Config.graph;
  period_required : float;
  period_min : float option;  (** the mapped graph's MCR *)
  slack : float option;
  latency : float option;  (** for graphs with a unique source/sink *)
  critical : Sensitivity.critical option;
}

type t = {
  processors : processor_load list;
  memories : memory_load list;
  graphs : graph_report list;
  violations : string list;
      (** the exact certificate's violations ({!Certify.violations}) *)
}

(** [build cfg mapped] assembles the report. *)
val build : Taskgraph.Config.t -> Taskgraph.Config.mapped -> t

(** [pp cfg ppf t] renders the report. *)
val pp : Taskgraph.Config.t -> Format.formatter -> t -> unit
