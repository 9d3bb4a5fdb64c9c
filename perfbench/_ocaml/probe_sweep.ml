(* Sweep layers.  Request: [NAME CFG REPS].  Runs the three sweeps the
   CLI runs, through their library entry points with default
   parameters (the CLI's own path below 48 tasks plus buffers). *)

open Pbutil
module C = Taskgraph.Config

let caps = List.init 10 (fun i -> i + 1)

let () =
  each_request @@ function
  | [ name; cfg_path; reps ] ->
    let reps = int_of_string reps in
    let cfg = Taskgraph.Parse.config_of_file cfg_path in
    let _, s =
      timed ~reps (fun () ->
          Budgetbuf.Tradeoff.capacity_sweep cfg ~buffers:(C.all_buffers cfg) ~caps)
    in
    emit name "tradeoff.sweep_s" s;
    let _, s = timed ~reps (fun () -> Budgetbuf.Pareto.frontier cfg) in
    emit name "pareto.frontier_s" s;
    let _, s = timed ~reps (fun () -> Budgetbuf.Dse.throughput_curve cfg ~caps) in
    emit name "dse.curve_s" s
  | name :: _ -> Printf.printf "%s error malformed request\n%!" name
  | [] -> ()
