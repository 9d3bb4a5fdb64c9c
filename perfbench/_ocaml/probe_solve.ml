(* Solve-path layers.  Request: [NAME CFG MAP REPS], MAP being the
   mapping the CLI wrote for CFG.  Times the parser, the cone-program
   builder, the exact certifier and the 200-iteration simulation the
   solver uses as its cross-check. *)

open Pbutil

let () =
  each_request @@ function
  | [ name; cfg_path; map_path; reps ] ->
    let reps = int_of_string reps in
    let cfg, parse_s =
      timed ~reps (fun () -> Taskgraph.Parse.config_of_file cfg_path)
    in
    emit name "taskgraph.parse_s" parse_s;
    let b, build_s = timed ~reps (fun () -> Budgetbuf.Socp_builder.build cfg) in
    emit name "socp_builder.build_s" build_s;
    let model = b.Budgetbuf.Socp_builder.model in
    emit name "socp_builder.rows" (float_of_int (Conic.Model.num_rows model));
    emit name "socp_builder.vars" (float_of_int (Conic.Model.num_variables model));
    let mapped = Taskgraph.Mapped_io.parse_file cfg map_path in
    let _, check_s = timed ~reps (fun () -> Budgetbuf.Certify.check cfg mapped) in
    emit name "certify.check_s" check_s;
    let _, run_s =
      timed ~reps (fun () -> Tdm_sim.Sim.run cfg mapped ~iterations:200 ())
    in
    emit name "tdm_sim.run200_s" run_s
  | name :: _ -> Printf.printf "%s error malformed request\n%!" name
  | [] -> ()
