(* Overhead gates: the three machinery-cost gates, with four targets,
   that no test and no perfbench bound enforces.

     dune build bench/main.exe && _build/default/bench/main.exe

   Each gate times the work a feature adds directly and divides it by
   the plain solver-bound work it rides on.  A few milliseconds of
   machinery are resolved this way, where an end-to-end with/without
   difference on a shared box drowns in run-to-run noise.

   - obs: the events of one traced sweep, replayed through a null-sink
     and a file-sink context, over the plain sweep (targets < 1 % and
     < 5 %, docs/observability.md);
   - durable: one journal's resume, fsync'd records and close, over the
     plain sweep (target < 2 %, docs/robustness.md);
   - certify: [Certify.check] over the [Mapping.solve] it certifies,
     summed over the capacity sweeps of three instances (target < 10 %,
     docs/robustness.md).

   The plain sweep is the 10-candidate capacity sweep of a 24-task
   chain, measured once and shared by the obs and durable gates.  Each
   gate prints its measured value against its target; the exit code is
   1 when any gate misses and 2 on a command-line argument (there are
   none).  The paper's tables are [budgetbuf experiment all]; the gated
   end-to-end benchmark is perfbench (docs/testing.md, "Bench gates"). *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping

let caps = List.init 10 (fun i -> i + 1)

(* [time f] is the wall-clock of [f ()]. *)
let time f =
  let t0 = Unix.gettimeofday () in
  ignore (f ());
  Unix.gettimeofday () -. t0

(* [best_of reps measure] is the least of [reps] calls of [measure],
   each of which returns the time it measured — so setup and cleanup
   around the measured work stay outside the figure. *)
let best_of reps measure =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (measure ())
  done;
  !best

(* A fresh path in the temp directory, with no file behind it. *)
let temp_path suffix =
  let path = Filename.temp_file "budgetbuf-bench" suffix in
  Sys.remove path;
  path

(* One gate: its measured overhead in percent against an exclusive
   upper target, and what the figure was derived from. *)
type gate = { name : string; value : float; target : float; detail : string }

let overhead name ~target ~cost ~base detail =
  { name; value = 100.0 *. cost /. base; target; detail }

(* ---- the plain sweep every obs and durable figure is divided by ---- *)

let chain24 = Workloads.Gen.chain ~n:24 ()

let sweep ?obs () =
  Budgetbuf.Tradeoff.capacity_sweep ?obs chain24
    ~buffers:(Config.all_buffers chain24)
    ~caps

(* ---- obs: replay one traced sweep's events ------------------------- *)

let obs_gates ~plain =
  let ring = Obs.Sink.ring ~capacity:max_int in
  ignore (sweep ~obs:(Obs.Ctx.make ~sink:ring ()) ());
  let events = List.map (fun ev -> ev.Obs.Trace.event) (Obs.Sink.events ring) in
  (* [with_span] reads the clock at open and at close; one read per
     event stands in for those reads. *)
  let replay obs =
    List.iter
      (fun ev ->
        Obs.Ctx.emit obs ev;
        ignore (Obs.Clock.now ()))
      events
  in
  let null_cost =
    best_of 20 (fun () -> time (fun () -> replay (Obs.Ctx.make ())))
  in
  let file_cost =
    best_of 20 (fun () ->
        let path = temp_path ".trace" in
        let t =
          time (fun () ->
              let sink = Obs.Sink.file path in
              replay (Obs.Ctx.make ~sink ());
              Obs.Sink.close sink)
        in
        Sys.remove path;
        t)
  in
  let detail cost =
    Printf.sprintf "%d events replayed in %.3f ms" (List.length events)
      (1000.0 *. cost)
  in
  [
    overhead "obs null" ~target:1.0 ~cost:null_cost ~base:plain
      (detail null_cost);
    overhead "obs file" ~target:5.0 ~cost:file_cost ~base:plain
      (detail file_cost);
  ]

(* ---- durable: one journal's whole life on a sweep ------------------ *)

(* Everything journaling adds to a sweep is one [resume], one fsync'd
   [record] per candidate (a tradeoff payload is ~180 bytes) and one
   [close]. *)
let durable_gate ~plain =
  let candidates = List.length caps and payload = String.make 180 'x' in
  let cost =
    best_of 20 (fun () ->
        let path = temp_path ".journal" in
        let t =
          time (fun () ->
              match
                Durable.Journal.resume
                  ~fingerprint:(Durable.Journal.fingerprint [ "bench" ])
                  path
              with
              | Error msg -> failwith msg
              | Ok j ->
                for index = 0 to candidates - 1 do
                  Durable.Journal.record j ~index ~payload
                done;
                Durable.Journal.close j)
        in
        Sys.remove path;
        t)
  in
  overhead "durable" ~target:2.0 ~cost ~base:plain
    (Printf.sprintf "%d fsync'd records in %.3f ms" candidates (1000.0 *. cost))

(* ---- certify: exact proof cost against the solve ------------------- *)

(* Each capped candidate's solve and certification, best of 5 each.
   The solve itself already certifies once, so the ratio is taken
   against the pessimistic denominator. *)
let certify_gate () =
  let instances =
    [
      Workloads.Gen.paper_t1 ();
      Workloads.Gen.paper_t2 ();
      Workloads.Gen.chain ~n:12 ();
    ]
  in
  let solve_s = ref 0.0 and cert_s = ref 0.0 and n = ref 0 in
  List.iter
    (fun cfg ->
      List.iter
        (fun cap ->
          let candidate = Config.copy cfg in
          List.iter
            (fun b -> Config.set_max_capacity candidate b (Some cap))
            (Config.all_buffers cfg);
          match Mapping.solve candidate with
          | Error _ -> ()
          | Ok r ->
            incr n;
            solve_s :=
              !solve_s
              +. best_of 5 (fun () -> time (fun () -> Mapping.solve candidate));
            cert_s :=
              !cert_s
              +. best_of 5 (fun () ->
                     time (fun () ->
                         Budgetbuf.Certify.check candidate r.Mapping.mapped)))
        caps)
    instances;
  overhead "certify" ~target:10.0 ~cost:!cert_s ~base:!solve_s
    (Printf.sprintf "%d candidates: certify %.2f ms over solve %.1f ms" !n
       (1000.0 *. !cert_s) (1000.0 *. !solve_s))

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "usage: main.exe (no arguments: runs the overhead gates)";
    exit 2
  end;
  let plain = best_of 5 (fun () -> time (fun () -> sweep ())) in
  Printf.printf "plain sweep: chain 24, %d candidates, best of 5: %.1f ms\n%!"
    (List.length caps) (1000.0 *. plain);
  let obs = obs_gates ~plain in
  let durable = durable_gate ~plain in
  let gates = obs @ [ durable; certify_gate () ] in
  let missed =
    List.filter
      (fun g ->
        let ok = g.value < g.target in
        Printf.printf "%-9s %7.3f %% (target < %g %%)  %-4s  %s\n" g.name
          g.value g.target
          (if ok then "ok" else "MISS")
          g.detail;
        not ok)
      gates
  in
  if missed <> [] then exit 1
