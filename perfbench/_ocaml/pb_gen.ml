(* Input generator: [pb_gen WORKLOAD SEED DIR [COUNT]] writes every
   configuration the workload needs to the one file DIR/inputs.cfgs,
   each preceded by a header comment line "#@ NAME CLASS TASKS
   BUFFERS".  Inputs depend only on the seed: each instance draws from
   its own split of the seed's stream, so resizing one instance never
   perturbs another. *)

open Workloads
module C = Taskgraph.Config

let out = Buffer.create 65536

let add name cls cfg =
  Printf.bprintf out "#@ %s %s %d %d\n" name cls
    (List.length (C.all_tasks cfg))
    (List.length (C.all_buffers cfg));
  Buffer.add_string out (Format.asprintf "%a@." C.pp cfg)

let app name = (List.assoc name Apps.all) ()

(* Seeded jitter on the WCET of the regular shapes keeps their size
   and solver path fixed while still varying the instance.  The range
   stays below the default WCET of 1 so every budget rounds to the same
   granule: a jitter across a rounding boundary would move the summed
   objective by a whole granule per task. *)
let wcet r = Rng.float r ~lo:0.90 ~hi:0.98

let ladder rng =
  let next () = Rng.split rng in
  add "t1" "small" (Gen.paper_t1 ());
  add "t2" "small" (Gen.paper_t2 ());
  List.iter (fun (n, _) -> add n "small" (app n)) Apps.all;
  (* Eight similar random chains put the median ladder job inside the
     small class rather than on the small/medium boundary. *)
  for i = 0 to 7 do
    let r = next () in
    add (Printf.sprintf "rchain%d" i) "small"
      (Gen.random_chain r ~n:(5 + Rng.int r ~bound:2) ())
  done;
  add "chain30" "medium" (Gen.chain ~n:30 ~wcet:(wcet (next ())) ());
  add "chain100" "medium" (Gen.chain ~n:100 ~wcet:(wcet (next ())) ());
  add "mesh6" "medium" (Gen.mesh ~rows:6 ~cols:6 ~wcet:(wcet (next ())) ());
  add "tree5" "medium" (Gen.binary_tree ~depth:5 ~wcet:(wcet (next ())) ());
  add "splitjoin30" "medium"
    (Gen.split_join ~branches:30 ~wcet:(wcet (next ())) ());
  add "multijob10x5" "medium"
    (Gen.multi_job (next ()) ~jobs:10 ~tasks_per_job:5 ~procs:10 ());
  add "rchain40" "medium" (Gen.random_chain (next ()) ~n:40 ());
  add "chain300" "large"
    (Gen.chain ~n:300 ~wcet:(wcet (next ())) ());
  add "multijob100x3" "large"
    (Gen.multi_job (next ()) ~jobs:100 ~tasks_per_job:3 ~procs:100 ())

let sweep rng =
  let next () = Rng.split rng in
  add "t2" "sweep" (Gen.paper_t2 ());
  add "mp3" "sweep" (app "mp3-playback");
  add "chain6" "sweep" (Gen.chain ~n:6 ~wcet:(wcet (next ())) ());
  add "splitjoin3" "sweep"
    (Gen.split_join ~branches:3 ~wcet:(wcet (next ())) ());
  add "rchain5" "sweep" (Gen.random_chain (next ()) ~n:5 ());
  add "multijob2x3" "sweep"
    (Gen.multi_job (next ()) ~jobs:2 ~tasks_per_job:3 ~procs:3 ())

(* Three instances of each of eight shapes, so the summed containers
   and the median job average over the seed's draws. *)
let tighten rng =
  let next () = Rng.split rng in
  for k = 0 to 2 do
    let name s = Printf.sprintf "%s_%d" s k in
    add (name "rchain10") "tighten" (Gen.random_chain (next ()) ~n:10 ());
    add (name "rchain14") "tighten" (Gen.random_chain (next ()) ~n:14 ());
    add (name "splitjoin4") "tighten"
      (Gen.split_join ~branches:4 ~wcet:(wcet (next ())) ());
    add (name "splitjoin6") "tighten"
      (Gen.split_join ~branches:6 ~wcet:(wcet (next ())) ());
    add (name "tree3") "tighten" (Gen.binary_tree ~depth:3 ~wcet:(wcet (next ())) ());
    add (name "mesh4") "tighten" (Gen.mesh ~rows:4 ~cols:4 ~wcet:(wcet (next ())) ());
    add (name "multijob4x3") "tighten"
      (Gen.multi_job (next ()) ~jobs:4 ~tasks_per_job:3 ~procs:4 ());
    add (name "chain14") "tighten" (Gen.chain ~n:14 ~wcet:(wcet (next ())) ())
  done

(* Serve instances all declare processors p0.. with the default
   replenishment interval and the same memory, so two live jobs never
   conflict on a resource declaration; WCET and period are drawn wide
   enough that no two instances share a canonical key. *)
let serve rng count =
  for i = 0 to count - 1 do
    let r = Rng.split rng in
    let wcet = Rng.float r ~lo:0.5 ~hi:2.0 in
    let period = Rng.float r ~lo:8.0 ~hi:14.0 in
    let cfg =
      match i mod 3 with
      | 0 -> Gen.chain ~n:(3 + Rng.int r ~bound:6) ~wcet ~period ()
      | 1 -> Gen.split_join ~branches:(2 + Rng.int r ~bound:3) ~wcet ~period ()
      | _ -> Gen.binary_tree ~depth:2 ~wcet ~period ()
    in
    add (Printf.sprintf "s%04d" i) "serve" cfg
  done

let () =
  let workload = Sys.argv.(1) in
  let rng = Rng.create (Int64.of_string Sys.argv.(2)) in
  let dir = Sys.argv.(3) in
  let count = if Array.length Sys.argv > 4 then int_of_string Sys.argv.(4) else 0 in
  add "warmup" "warmup" (Gen.chain ~n:2 ());
  (match workload with
  | "solve_ladder" -> ladder rng
  | "sweep_small" -> sweep rng
  | "tighten_medium" -> tighten rng
  | "serve_mixed" -> serve rng count
  | w -> failwith ("unknown workload " ^ w));
  (* Reference solves give the size-class metrics a value on the
     workloads that do not run the ladder themselves; they are fixed,
     not seeded, and the large one is the cheapest 300-task shape. *)
  if workload <> "solve_ladder" then begin
    add "ref_small" "ref_small" (Gen.paper_t2 ());
    add "ref_medium" "ref_medium" (Gen.chain ~n:30 ());
    add "ref_large" "ref_large"
      (Gen.multi_job (Rng.create 1L) ~jobs:100 ~tasks_per_job:3 ~procs:100 ())
  end;
  let oc = open_out_bin (Filename.concat dir "inputs.cfgs") in
  Buffer.output_buffer oc out;
  close_out oc
