(* Output checker.  Reads requests from stdin, one per line, and
   answers each with "NAME ok", "NAME refuted REASON" when a claim the
   program printed is false, or "NAME fail REASON" when the output is
   as claimed but misses the bar below:

   - [NAME solve CFG MAP]: the mapping re-parses through
     Taskgraph.Mapped_io and Certify.check proves it exactly (the CLI
     printed "certificate: ok"; refuted otherwise), and a 200-iteration
     simulation meets every period within the solver's own soft
     cross-check margin of 10 % (fail otherwise: the solver itself
     only warns there).
   - [NAME tighten CFG ANALYTIC TIGHT ITERATIONS]: the analytic mapping
     is certified and the tightened one simulates, at the given
     horizon, no slower than max(period, analytic mapping's measured
     period) — the target the tightener itself promises (refuted
     otherwise). *)

module C = Taskgraph.Config

let soft_margin = 1.10

let periods cfg mapped iterations =
  match Tdm_sim.Sim.run cfg mapped ~iterations () with
  | Error e -> Error (`Fail ("simulation failed: " ^ e))
  | Ok report ->
    Ok (List.map (fun g -> (g, report.Tdm_sim.Sim.graph_period g)) (C.graphs cfg))

let certified cfg mapped =
  let cert = Budgetbuf.Certify.check cfg mapped in
  if Budgetbuf.Certify.certified cert then Ok ()
  else Error (`Refuted ("certificate " ^ Budgetbuf.Certify.summary cert))

let ( let* ) = Result.bind

let check_solve cfg_path map_path =
  let cfg = Taskgraph.Parse.config_of_file cfg_path in
  let mapped = Taskgraph.Mapped_io.parse_file cfg map_path in
  let* () = certified cfg mapped in
  let* ps = periods cfg mapped 200 in
  match
    List.find_opt
      (fun (g, p) -> not (p <= (soft_margin *. C.period cfg g) +. 1e-9))
      ps
  with
  | None -> Ok ()
  | Some (g, p) ->
    Error
      (`Fail
        (Printf.sprintf "graph %s simulates at period %.6f, required %.6f"
           (C.graph_name cfg g) p (C.period cfg g)))

let check_tighten cfg_path analytic_path tight_path iterations =
  let cfg = Taskgraph.Parse.config_of_file cfg_path in
  let analytic = Taskgraph.Mapped_io.parse_file cfg analytic_path in
  let tight = Taskgraph.Mapped_io.parse_file cfg tight_path in
  let* () = certified cfg analytic in
  let* base = periods cfg analytic iterations in
  let* ps =
    Result.map_error (fun (`Fail m) -> `Refuted m) (periods cfg tight iterations)
  in
  match
    List.find_opt
      (fun (g, p) ->
        let target = Float.max (C.period cfg g) (List.assq g base) in
        not (p <= (target *. (1.0 +. 1e-9)) +. 1e-12))
      ps
  with
  | None -> Ok ()
  | Some (g, p) ->
    Error
      (`Refuted
        (Printf.sprintf "graph %s simulates at period %.6f, target %.6f"
           (C.graph_name cfg g) p
           (Float.max (C.period cfg g) (List.assq g base))))

let one_line = String.map (fun c -> if c = '\n' then ' ' else c)

let () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let words = String.split_on_char ' ' (String.trim line) in
      let name = List.hd words in
      let verdict =
        try
          match words with
          | [ _; "solve"; cfg; map ] -> check_solve cfg map
          | [ _; "tighten"; cfg; analytic; tight; iterations ] ->
            check_tighten cfg analytic tight (int_of_string iterations)
          | _ -> Error (`Fail "malformed check request")
        with e -> Error (`Refuted (Printexc.to_string e))
      in
      (match verdict with
      | Ok () -> Printf.printf "%s ok\n%!" name
      | Error (`Fail msg) -> Printf.printf "%s fail %s\n%!" name (one_line msg)
      | Error (`Refuted msg) ->
        Printf.printf "%s refuted %s\n%!" name (one_line msg));
      loop ()
  in
  loop ()
