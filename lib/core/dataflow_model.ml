module Config = Taskgraph.Config
module Srdf = Dataflow.Srdf
module Analysis = Dataflow.Analysis

type t = {
  srdf : Srdf.t;
  actor1 : Config.task -> Srdf.actor;
  actor2 : Config.task -> Srdf.actor;
  self_edge : Config.task -> Srdf.edge;
  transition_edge : Config.task -> Srdf.edge;
  data_edge : Config.buffer -> Srdf.edge;
  space_edge : Config.buffer -> Srdf.edge;
}

let build cfg g ~budget ~capacity =
  let srdf = Srdf.create () in
  let a1 = Hashtbl.create 16
  and a2 = Hashtbl.create 16
  and selfe = Hashtbl.create 16
  and trans = Hashtbl.create 16
  and datae = Hashtbl.create 16
  and spacee = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let p = Config.task_proc cfg w in
      let repl = Config.replenishment cfg p in
      let beta = budget w in
      if beta <= 0.0 || beta > repl then
        invalid_arg
          (Printf.sprintf
             "Dataflow_model.build: budget %g of task %s outside (0, %g]" beta
             (Config.task_name cfg w) repl);
      let name = Config.task_name cfg w in
      let v1 =
        Srdf.add_actor srdf ~name:(name ^ ".1") ~duration:(repl -. beta)
      in
      let v2 =
        Srdf.add_actor srdf ~name:(name ^ ".2")
          ~duration:(repl *. Config.wcet cfg w /. beta)
      in
      Hashtbl.replace a1 (Config.task_id w) v1;
      Hashtbl.replace a2 (Config.task_id w) v2;
      Hashtbl.replace trans (Config.task_id w)
        (Srdf.add_edge srdf ~src:v1 ~dst:v2 ~tokens:0);
      Hashtbl.replace selfe (Config.task_id w)
        (Srdf.add_edge srdf ~src:v2 ~dst:v2 ~tokens:1))
    (Config.tasks cfg g);
  List.iter
    (fun b ->
      let src = Config.buffer_src cfg b and dst = Config.buffer_dst cfg b in
      let iota = Config.initial_tokens cfg b in
      let gamma = capacity b in
      if gamma < iota then
        invalid_arg
          (Printf.sprintf
             "Dataflow_model.build: capacity %d of buffer %s below its %d \
              initially filled containers"
             gamma
             (Config.buffer_name cfg b)
             iota);
      let src2 = Hashtbl.find a2 (Config.task_id src)
      and dst1 = Hashtbl.find a1 (Config.task_id dst)
      and dst2 = Hashtbl.find a2 (Config.task_id dst)
      and src1 = Hashtbl.find a1 (Config.task_id src) in
      Hashtbl.replace datae (Config.buffer_id b)
        (Srdf.add_edge srdf ~src:src2 ~dst:dst1 ~tokens:iota);
      Hashtbl.replace spacee (Config.buffer_id b)
        (Srdf.add_edge srdf ~src:dst2 ~dst:src1 ~tokens:(gamma - iota)))
    (Config.buffers cfg g);
  {
    srdf;
    actor1 = (fun w -> Hashtbl.find a1 (Config.task_id w));
    actor2 = (fun w -> Hashtbl.find a2 (Config.task_id w));
    self_edge = (fun w -> Hashtbl.find selfe (Config.task_id w));
    transition_edge = (fun w -> Hashtbl.find trans (Config.task_id w));
    data_edge = (fun b -> Hashtbl.find datae (Config.buffer_id b));
    space_edge = (fun b -> Hashtbl.find spacee (Config.buffer_id b));
  }

let throughput_ok cfg g (mapped : Config.mapped) =
  match
    build cfg g ~budget:mapped.Config.budget ~capacity:mapped.Config.capacity
  with
  | model ->
    Analysis.pas_exists model.srdf ~period:(Config.period cfg g)
  | exception Invalid_argument _ -> false

let min_feasible_period cfg g (mapped : Config.mapped) =
  match
    build cfg g ~budget:mapped.Config.budget ~capacity:mapped.Config.capacity
  with
  | exception Invalid_argument _ -> None
  | model -> begin
    (* Howard's policy iteration: the fastest of the three MCR
       implementations (see the mcr bench ablation), cross-validated
       against the binary search and Karp in the test suite. *)
    match Dataflow.Howard.max_cycle_ratio model.srdf with
    | Analysis.Mcr r -> Some r
    | Analysis.Acyclic -> Some 0.0
    | Analysis.Deadlocked -> None
  end
