(* Tightening layers.  Request: [NAME CFG REPS].  Solves the instance,
   tightens the analytic mapping with the default horizon, and times
   one probe-length (64-iteration) simulation on its own. *)

open Pbutil

let () =
  each_request @@ function
  | [ name; cfg_path; reps ] -> (
    let reps = int_of_string reps in
    let cfg = Taskgraph.Parse.config_of_file cfg_path in
    let r, solve_s = timed ~reps (fun () -> Budgetbuf.Mapping.solve cfg) in
    emit name "mapping.solve_s" solve_s;
    match r with
    | Error e ->
      Printf.printf "%s error %s\n%!" name (Budgetbuf.Mapping.short_reason e)
    | Ok r -> (
      let mapped = r.Budgetbuf.Mapping.mapped in
      let _, run64_s =
        timed ~reps (fun () -> Tdm_sim.Sim.run cfg mapped ~iterations:64 ())
      in
      emit name "tdm_sim.run64_s" run64_s;
      let t, run_s = timed ~reps (fun () -> Tighten.run cfg mapped) in
      emit name "tighten.run_s" run_s;
      match t with
      | Error e -> Printf.printf "%s error %s\n%!" name e
      | Ok t ->
        emit name "tighten.probes" (float_of_int t.Tighten.probes);
        emit name "tighten.analytic" (float_of_int t.Tighten.analytic_containers);
        emit name "tighten.tightened" (float_of_int t.Tighten.tightened_containers);
        emit name "tighten.repaired" (if t.Tighten.repaired then 1.0 else 0.0)))
  | name :: _ -> Printf.printf "%s error malformed request\n%!" name
  | [] -> ()
