module Config = Taskgraph.Config
module Rat = Exact.Rat

type witness = { starts : (string * Rat.t) list }

type refutation =
  | Violated of Violation.t
  | Positive_cycle of {
      graph : string;
      period : float;
      actors : string list;
      excess : Rat.t;
    }

type t = Certified of witness | Refuted of refutation list

(* ρ(v1) = ̺ − β and ρ(v2) = ̺·χ/β for one graph, every edge weight
   w(e) = ρ(src) − δ(e)·µ — the longest-path formulation of the PAS
   existence condition, mirrored from the float analysis but on exact
   rationals.  Returns the actor start times when a PAS exists; a
   refuted graph reports through [refute] and contributes none. *)
let certify_graph cfg (mapped : Config.mapped) ~refute g =
  let graph = Config.graph_name cfg g in
  let period = Config.period cfg g in
  let tasks = Config.tasks cfg g and buffers = Config.buffers cfg g in
  if
    List.exists
      (fun b -> mapped.Config.capacity b < Config.initial_tokens cfg b)
      buffers
  then begin
    (* the SRDF model is undefined: no periodic schedule exists *)
    refute (Violated (Violation.Throughput { graph; period }));
    []
  end
  else begin
    let mu = Rat.of_float period in
    let index = Hashtbl.create 16 in
    let n = ref 0 in
    let names = Array.make (2 * List.length tasks) "" in
    let rho = Array.make (2 * List.length tasks) Rat.zero in
    List.iter
      (fun w ->
        let name = Config.task_name cfg w in
        let repl =
          Rat.of_float (Config.replenishment cfg (Config.task_proc cfg w))
        in
        let beta = Rat.of_float (mapped.Config.budget w) in
        let chi = Rat.of_float (Config.wcet cfg w) in
        Hashtbl.replace index (Config.task_id w) !n;
        names.(!n) <- name ^ ".1";
        rho.(!n) <- Rat.sub repl beta;
        names.(!n + 1) <- name ^ ".2";
        rho.(!n + 1) <- Rat.div (Rat.mul repl chi) beta;
        n := !n + 2)
      tasks;
    let edges = ref [] in
    let add_edge src dst tokens =
      edges :=
        (src, dst, Rat.sub rho.(src) (Rat.mul (Rat.of_int tokens) mu))
        :: !edges
    in
    List.iter
      (fun w ->
        let v1 = Hashtbl.find index (Config.task_id w) in
        add_edge v1 (v1 + 1) 0;
        add_edge (v1 + 1) (v1 + 1) 1)
      tasks;
    List.iter
      (fun b ->
        let iota = Config.initial_tokens cfg b in
        let actor w = Hashtbl.find index (Config.task_id w) in
        let src = actor (Config.buffer_src cfg b)
        and dst = actor (Config.buffer_dst cfg b) in
        add_edge (src + 1) dst iota;
        add_edge (dst + 1) src (mapped.Config.capacity b - iota))
      buffers;
    let edges = Array.of_list (List.rev !edges) in
    match Exact.Bf.longest_path ~nodes:!n edges with
    | Exact.Bf.Positive_cycle cycle ->
      let actors =
        List.map
          (fun e ->
            let s, _, _ = edges.(e) in
            names.(s))
          cycle
      in
      let excess =
        List.fold_left
          (fun acc e ->
            let _, _, w = edges.(e) in
            Rat.add acc w)
          Rat.zero cycle
      in
      refute (Positive_cycle { graph; period; actors; excess });
      []
    | Exact.Bf.Feasible d ->
      (* Latency of the earliest PAS against the graph's bound, for
         graphs with a unique source/sink pair. *)
      (match Config.latency_bound cfg g with
      | None -> ()
      | Some bound -> (
        let has_input w =
          List.exists (fun b -> Config.buffer_dst cfg b = w) buffers
        and has_output w =
          List.exists (fun b -> Config.buffer_src cfg b = w) buffers
        in
        match
          ( List.filter (fun w -> not (has_input w)) tasks,
            List.filter (fun w -> not (has_output w)) tasks )
        with
        | [ src ], [ snk ] ->
          let v_src = Hashtbl.find index (Config.task_id src) in
          let v_snk = Hashtbl.find index (Config.task_id snk) + 1 in
          let latency = Rat.sub (Rat.add d.(v_snk) rho.(v_snk)) d.(v_src) in
          if Rat.compare latency (Rat.of_float bound) > 0 then
            refute
              (Violated
                 (Violation.Latency
                    { graph; latency = Rat.to_float latency; bound }))
        | _ -> ()));
      List.mapi (fun i di -> (names.(i), di)) (Array.to_list d)
  end

let check cfg (mapped : Config.mapped) =
  let refutations = ref [] in
  let refute r = refutations := r :: !refutations in
  let violated v = refute (Violated v) in
  match
    (* Budgets first: everything downstream divides by them.  A task
       whose budget is non-finite or outside (0, ̺] has no SRDF, so its
       graph is not Bellman–Forded and these violations stand in. *)
    let undefined = Hashtbl.create 8 in
    List.iter
      (fun w ->
        let beta = mapped.Config.budget w in
        let name = Config.task_name cfg w in
        let repl = Config.replenishment cfg (Config.task_proc cfg w) in
        if not (Float.is_finite beta) then begin
          violated
            (Violation.Non_finite
               { what = "budget of task " ^ name; value = beta });
          Hashtbl.replace undefined (Config.task_id w) ()
        end
        else if
          Rat.sign (Rat.of_float beta) <= 0
          || Rat.compare (Rat.of_float beta) (Rat.of_float repl) > 0
        then begin
          violated
            (Violation.Budget_range
               { task = name; budget = beta; replenishment = repl });
          Hashtbl.replace undefined (Config.task_id w) ()
        end)
      (Config.all_tasks cfg);
    (* Throughput (and latency) of every graph, via exact Bellman-Ford. *)
    let starts =
      List.concat_map
        (fun g ->
          if
            List.exists
              (fun w -> Hashtbl.mem undefined (Config.task_id w))
              (Config.tasks cfg g)
          then []
          else certify_graph cfg mapped ~refute g)
        (Config.graphs cfg)
    in
    (* Processor capacity, constraint (4) plus overhead — exact, with
       no epsilon indulgence. *)
    List.iter
      (fun p ->
        let tasks = Config.tasks_on cfg p in
        if List.for_all (fun w -> Float.is_finite (mapped.Config.budget w)) tasks
        then begin
          let used =
            List.fold_left
              (fun acc w -> Rat.add acc (Rat.of_float (mapped.Config.budget w)))
              (Rat.of_float (Config.overhead cfg p))
              tasks
          in
          let repl = Config.replenishment cfg p in
          if Rat.compare used (Rat.of_float repl) > 0 then
            violated
              (Violation.Processor_capacity
                 {
                   proc = Config.proc_name cfg p;
                   used = Rat.to_float used;
                   capacity = repl;
                 })
        end)
      (Config.processors cfg);
    (* Memory pre-reservation: integers, so already exact. *)
    List.iter
      (fun m ->
        let used =
          List.fold_left
            (fun acc b ->
              acc + (mapped.Config.capacity b * Config.container_size cfg b))
            0 (Config.buffers_in cfg m)
        in
        if used > Config.memory_capacity cfg m then
          violated
            (Violation.Memory_capacity
               {
                 memory = Config.memory_name cfg m;
                 used;
                 capacity = Config.memory_capacity cfg m;
               }))
      (Config.memories cfg);
    List.iter
      (fun b ->
        match Config.max_capacity cfg b with
        | Some cap when mapped.Config.capacity b > cap ->
          violated
            (Violation.Buffer_bound
               {
                 buffer = Config.buffer_name cfg b;
                 capacity = mapped.Config.capacity b;
                 bound = cap;
               })
        | Some _ | None -> ())
      (Config.all_buffers cfg);
    starts
  with
  | starts -> (
    match List.rev !refutations with
    | [] -> Certified { starts }
    | rs -> Refuted rs)
  | exception Invalid_argument msg ->
    (* a non-finite configuration constant slipped past the explicit
       guards; refuse to certify rather than crash *)
    violated (Violation.Non_finite { what = msg; value = Float.nan });
    Refuted (List.rev !refutations)

let certified = function Certified _ -> true | Refuted _ -> false

let violations = function
  | Certified _ -> []
  | Refuted rs ->
    List.map
      (function
        | Violated v -> v
        | Positive_cycle { graph; period; _ } ->
          Violation.Throughput { graph; period })
      rs

let trace obs t =
  match obs with
  | None -> ()
  | Some o ->
    Obs.Ctx.emit o
      (Obs.Trace.Certificate
         { verdict = (if certified t then "certified" else "refuted") })

let refutation_to_string = function
  | Violated v -> Violation.to_string v
  | Positive_cycle { graph; actors; excess; _ } ->
    Printf.sprintf "task graph %s: positive cycle %s (excess %s)" graph
      (String.concat " -> " actors)
      (Rat.to_string excess)

let summary = function
  | Certified w ->
    Printf.sprintf "ok (exact, %d start times)" (List.length w.starts)
  | Refuted rs ->
    "refuted: " ^ String.concat "; " (List.map refutation_to_string rs)

let pp fmt t = Format.pp_print_string fmt (summary t)
