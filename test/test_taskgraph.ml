(* Tests for the configuration model and its textual format. *)

module Config = Taskgraph.Config
module Parse = Taskgraph.Parse
module Mapped_io = Taskgraph.Mapped_io

let check_float eps = Alcotest.(check (float eps))

let sample () =
  let cfg = Config.create ~granularity:2.0 () in
  let p1 = Config.add_processor cfg ~name:"p1" ~replenishment:40.0 ~overhead:1.5 () in
  let p2 = Config.add_processor cfg ~name:"p2" ~replenishment:50.0 () in
  let m1 = Config.add_memory cfg ~name:"m1" ~capacity:64 in
  let g = Config.add_graph cfg ~name:"job" ~period:10.0 () in
  let wa = Config.add_task cfg g ~name:"wa" ~proc:p1 ~wcet:1.0 ~weight:2.0 () in
  let wb = Config.add_task cfg g ~name:"wb" ~proc:p2 ~wcet:1.5 () in
  let b =
    Config.add_buffer cfg g ~name:"bab" ~src:wa ~dst:wb ~memory:m1
      ~container_size:4 ~initial_tokens:1 ~weight:0.5 ~max_capacity:8 ()
  in
  (cfg, p1, p2, m1, g, wa, wb, b)

let test_accessors () =
  let cfg, p1, p2, m1, g, wa, wb, b = sample () in
  check_float 0.0 "granularity" 2.0 (Config.granularity cfg);
  Alcotest.(check string) "proc name" "p1" (Config.proc_name cfg p1);
  check_float 0.0 "replenishment" 40.0 (Config.replenishment cfg p1);
  check_float 0.0 "overhead" 1.5 (Config.overhead cfg p1);
  check_float 0.0 "default overhead" 0.0 (Config.overhead cfg p2);
  Alcotest.(check int) "memory" 64 (Config.memory_capacity cfg m1);
  check_float 0.0 "period" 10.0 (Config.period cfg g);
  check_float 0.0 "wcet" 1.5 (Config.wcet cfg wb);
  check_float 0.0 "task weight" 2.0 (Config.task_weight cfg wa);
  check_float 0.0 "default weight" 1.0 (Config.task_weight cfg wb);
  Alcotest.(check bool) "src" true (Config.buffer_src cfg b = wa);
  Alcotest.(check bool) "dst" true (Config.buffer_dst cfg b = wb);
  Alcotest.(check int) "container" 4 (Config.container_size cfg b);
  Alcotest.(check int) "iota" 1 (Config.initial_tokens cfg b);
  Alcotest.(check (option int)) "cap" (Some 8) (Config.max_capacity cfg b)

let test_collections () =
  let cfg, p1, p2, _, g, wa, wb, b = sample () in
  Alcotest.(check int) "procs" 2 (List.length (Config.processors cfg));
  Alcotest.(check int) "tasks" 2 (List.length (Config.tasks cfg g));
  Alcotest.(check int) "buffers" 1 (List.length (Config.buffers cfg g));
  Alcotest.(check bool) "tasks_on p1" true (Config.tasks_on cfg p1 = [ wa ]);
  Alcotest.(check bool) "tasks_on p2" true (Config.tasks_on cfg p2 = [ wb ]);
  Alcotest.(check bool) "all_buffers" true (Config.all_buffers cfg = [ b ])

let test_lookup () =
  let cfg, p1, _, _, _, wa, _, b = sample () in
  Alcotest.(check bool) "find_proc" true (Config.find_proc cfg "p1" = p1);
  Alcotest.(check bool) "find_task" true (Config.find_task cfg "wa" = wa);
  Alcotest.(check bool) "find_buffer" true (Config.find_buffer cfg "bab" = b);
  Alcotest.check_raises "absent" Not_found (fun () ->
      ignore (Config.find_task cfg "nope"))

let test_duplicate_names_rejected () =
  let cfg, _, _, _, g, _, _, _ = sample () in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Config: duplicate name \"wa\"") (fun () ->
      ignore
        (Config.add_task cfg g ~name:"wa"
           ~proc:(Config.find_proc cfg "p1")
           ~wcet:1.0 ()))

(* Twelve entities of every kind (24 tasks), past the store's initial
   capacity of 8, so every kind's array grows at least once.  Task [i]
   sits in graph and on processor [i mod 12]; buffer [j] joins task [j]
   to task [j + 12] of the same graph. *)
let grown () =
  let cfg = Config.create ~granularity:0.5 () in
  let n = 12 in
  let procs =
    List.init n (fun i ->
        Config.add_processor cfg ~name:(Printf.sprintf "p%d" i)
          ~replenishment:(40.0 +. float_of_int i)
          ~overhead:(float_of_int i /. 8.0) ())
  in
  let mems =
    List.init n (fun i ->
        Config.add_memory cfg ~name:(Printf.sprintf "m%d" i)
          ~capacity:(100 + i))
  in
  let graphs =
    List.init n (fun i ->
        Config.add_graph cfg ~name:(Printf.sprintf "g%d" i)
          ~period:(10.0 +. float_of_int i)
          ?latency_bound:(if i mod 3 = 0 then Some 90.0 else None)
          ())
  in
  let tasks =
    List.init (2 * n) (fun i ->
        Config.add_task cfg (List.nth graphs (i mod n))
          ~name:(Printf.sprintf "w%d" i) ~proc:(List.nth procs (i mod n))
          ~wcet:(1.0 +. (float_of_int i /. 4.0))
          ~weight:(float_of_int (i + 1)) ())
  in
  let buffers =
    List.init n (fun j ->
        Config.add_buffer cfg (List.nth graphs j)
          ~name:(Printf.sprintf "b%d" j) ~src:(List.nth tasks j)
          ~dst:(List.nth tasks (j + n)) ~memory:(List.nth mems j)
          ~container_size:(1 + j) ~initial_tokens:(j mod 2)
          ~weight:(float_of_int j /. 2.0)
          ?max_capacity:(if j mod 4 = 0 then Some (j + 3) else None)
          ())
  in
  (cfg, procs, mems, graphs, tasks, buffers)

let test_store_growth () =
  let cfg, procs, mems, graphs, tasks, buffers = grown () in
  let check_ids what handles all find id =
    Alcotest.(check bool) (what ^ " in declaration order") true (all = handles);
    List.iteri
      (fun i h ->
        Alcotest.(check int) (what ^ " id") i (id h);
        Alcotest.(check int)
          (what ^ " found by name")
          i
          (id (find (Printf.sprintf "%s%d" what i))))
      handles
  in
  check_ids "p" procs (Config.processors cfg) (Config.find_proc cfg)
    Config.proc_id;
  check_ids "m" mems (Config.memories cfg) (Config.find_memory cfg)
    Config.memory_id;
  check_ids "g" graphs (Config.graphs cfg) (Config.find_graph cfg)
    Config.graph_id;
  check_ids "w" tasks (Config.all_tasks cfg) (Config.find_task cfg)
    Config.task_id;
  check_ids "b" buffers (Config.all_buffers cfg) (Config.find_buffer cfg)
    Config.buffer_id;
  List.iteri
    (fun i p ->
      check_float 0.0 "replenishment" (40.0 +. float_of_int i)
        (Config.replenishment cfg p);
      Alcotest.(check bool) "tasks_on" true
        (Config.tasks_on cfg p
        = [ List.nth tasks i; List.nth tasks (i + 12) ]))
    procs;
  List.iteri
    (fun i m ->
      Alcotest.(check int) "capacity" (100 + i) (Config.memory_capacity cfg m))
    mems;
  List.iteri
    (fun i w ->
      Alcotest.(check string) "task name" (Printf.sprintf "w%d" i)
        (Config.task_name cfg w);
      check_float 0.0 "wcet"
        (1.0 +. (float_of_int i /. 4.0))
        (Config.wcet cfg w);
      Alcotest.(check int) "task graph" (i mod 12)
        (Config.graph_id (Config.task_graph cfg w)))
    tasks;
  List.iteri
    (fun j b ->
      Alcotest.(check int) "src" j (Config.task_id (Config.buffer_src cfg b));
      Alcotest.(check int) "dst" (j + 12)
        (Config.task_id (Config.buffer_dst cfg b));
      Alcotest.(check int) "container" (1 + j) (Config.container_size cfg b);
      Alcotest.(check (option int)) "max"
        (if j mod 4 = 0 then Some (j + 3) else None)
        (Config.max_capacity cfg b))
    buffers;
  let text = Format.asprintf "%a" Config.pp cfg in
  Alcotest.(check string) "pp ∘ parse is the identity" text
    (Format.asprintf "%a" Config.pp (Parse.config_of_string text))

(* A copy owns its arrays and name index: entities added to one side
   land in slack capacity that the other side must not see. *)
let test_copy_independent () =
  let cfg, procs, mems, graphs, tasks, _ = grown () in
  let snapshot c = Format.asprintf "%a" Config.pp c in
  let before = snapshot cfg in
  let copy = Config.copy cfg in
  let g0 = List.hd graphs and p0 = List.hd procs and m0 = List.hd mems in
  let add_pair c prefix =
    let x = Config.add_task c g0 ~name:(prefix ^ "x") ~proc:p0 ~wcet:1.0 () in
    ignore
      (Config.add_buffer c g0 ~name:(prefix ^ "bx") ~src:(List.hd tasks) ~dst:x
         ~memory:m0 ());
    x
  in
  let on_copy = add_pair copy "copy." in
  Config.set_period copy g0 99.0;
  Alcotest.(check string) "original untouched by the copy" before
    (snapshot cfg);
  Alcotest.check_raises "copy's name unknown to the original" Not_found
    (fun () -> ignore (Config.find_task cfg "copy.x"));
  let copy_text = snapshot copy in
  let on_orig = add_pair cfg "orig." in
  Config.set_period cfg g0 77.0;
  Alcotest.(check string) "copy untouched by the original" copy_text
    (snapshot copy);
  Alcotest.(check int) "same slot on both sides" (Config.task_id on_copy)
    (Config.task_id on_orig);
  Alcotest.(check string) "copy keeps its own task" "copy.x"
    (Config.task_name copy on_copy);
  Alcotest.(check string) "original keeps its own task" "orig.x"
    (Config.task_name cfg on_orig);
  check_float 0.0 "copy period" 99.0 (Config.period copy g0);
  check_float 0.0 "original period" 77.0 (Config.period cfg g0);
  Alcotest.(check int) "copy task count" 25
    (List.length (Config.all_tasks copy));
  Alcotest.(check int) "original task count" 25
    (List.length (Config.all_tasks cfg))

(* One namespace across kinds: a task may not reuse a processor's name,
   nor a buffer a graph's. *)
let test_duplicate_across_kinds () =
  let cfg, p1, _, m1, g, wa, wb, _ = sample () in
  Alcotest.check_raises "task named like a processor"
    (Invalid_argument "Config: duplicate name \"p1\"") (fun () ->
      ignore (Config.add_task cfg g ~name:"p1" ~proc:p1 ~wcet:1.0 ()));
  Alcotest.check_raises "buffer named like a graph"
    (Invalid_argument "Config: duplicate name \"job\"") (fun () ->
      ignore
        (Config.add_buffer cfg g ~name:"job" ~src:wa ~dst:wb ~memory:m1 ()));
  Alcotest.(check int) "nothing added" 2 (List.length (Config.all_tasks cfg))

let test_cross_graph_buffer_rejected () =
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:40.0 () in
  let m = Config.add_memory cfg ~name:"m" ~capacity:10 in
  let g1 = Config.add_graph cfg ~name:"g1" ~period:10.0 () in
  let g2 = Config.add_graph cfg ~name:"g2" ~period:10.0 () in
  let w1 = Config.add_task cfg g1 ~name:"w1" ~proc:p ~wcet:1.0 () in
  let w2 = Config.add_task cfg g2 ~name:"w2" ~proc:p ~wcet:1.0 () in
  Alcotest.check_raises "cross graph"
    (Invalid_argument "Config.add_buffer: endpoint tasks must belong to the graph")
    (fun () ->
      ignore
        (Config.add_buffer cfg g1 ~name:"b" ~src:w1 ~dst:w2 ~memory:m ()))

let test_invalid_arguments () =
  let cfg = Config.create ~granularity:1.0 () in
  Alcotest.check_raises "bad replenishment"
    (Invalid_argument "Config.add_processor: replenishment must be > 0")
    (fun () ->
      ignore (Config.add_processor cfg ~name:"p" ~replenishment:0.0 ()));
  Alcotest.check_raises "bad granularity"
    (Invalid_argument "Config.create: granularity must be > 0") (fun () ->
      ignore (Config.create ~granularity:0.0 ()))

let test_validate_flags_impossible () =
  let cfg = Config.create ~granularity:1.0 () in
  let p = Config.add_processor cfg ~name:"p" ~replenishment:5.0 () in
  let _m = Config.add_memory cfg ~name:"m" ~capacity:0 in
  let g = Config.add_graph cfg ~name:"g" ~period:3.0 () in
  (* wcet 4 > period 3: hopeless. *)
  let _w = Config.add_task cfg g ~name:"w" ~proc:p ~wcet:4.0 () in
  let problems = Config.validate cfg in
  Alcotest.(check bool) "flags wcet > period" true
    (List.exists
       (fun s -> String.length s > 0 && String.sub s 0 4 = "task")
       problems)

let test_validate_clean () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  Alcotest.(check (list string)) "no problems" [] (Config.validate cfg)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let sample_text =
  {|# paper experiment 1
granularity 2
processor p1 replenishment 40 overhead 1.5
processor p2 replenishment 50
memory m1 capacity 64
taskgraph job period 10
  task wa proc p1 wcet 1 weight 2
  task wb proc p2 wcet 1.5
  buffer bab from wa to wb memory m1 container 4 initial 1 weight 0.5 max 8
|}

let test_parse_sample () =
  let cfg = Parse.config_of_string sample_text in
  check_float 0.0 "granularity" 2.0 (Config.granularity cfg);
  let p1 = Config.find_proc cfg "p1" in
  check_float 0.0 "overhead" 1.5 (Config.overhead cfg p1);
  let b = Config.find_buffer cfg "bab" in
  Alcotest.(check int) "container" 4 (Config.container_size cfg b);
  Alcotest.(check (option int)) "max" (Some 8) (Config.max_capacity cfg b)

let test_parse_roundtrip () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  let text = Format.asprintf "%a" Config.pp cfg in
  let cfg' = Parse.config_of_string text in
  let text' = Format.asprintf "%a" Config.pp cfg' in
  Alcotest.(check string) "pp ∘ parse ∘ pp stable" text text'

let expect_parse_error ?line text =
  match Parse.config_of_string text with
  | exception Parse.Parse_error (l, _) -> begin
    match line with
    | None -> ()
    | Some expected -> Alcotest.(check int) "error line" expected l
  end
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error ~line:1 "frobnicate x";
  expect_parse_error ~line:1 "processor p1";
  expect_parse_error ~line:1 "processor p1 replenishment abc";
  expect_parse_error ~line:1 "task w proc p wcet 1";
  (* task outside graph *)
  expect_parse_error ~line:2 "processor p replenishment 40\ntask w proc p wcet 1";
  (* unknown processor *)
  expect_parse_error "taskgraph g period 10\n  task w proc nope wcet 1";
  (* attribute without value *)
  expect_parse_error ~line:1 "memory m capacity"

let test_parse_comments_and_blanks () =
  let cfg =
    Parse.config_of_string
      "# header\n\nprocessor p replenishment 40\n   \n# tail\n"
  in
  Alcotest.(check int) "one processor" 1 (List.length (Config.processors cfg))

let test_parse_semantic_error_has_line () =
  (* Duplicate name surfaces as a Parse_error with the offending line. *)
  expect_parse_error ~line:2
    "processor p replenishment 40\nprocessor p replenishment 40"


(* ------------------------------------------------------------------ *)
(* Parser fuzzing against generated workloads                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip_generated =
  QCheck2.Test.make
    ~name:"pp/parse round-trips every generated workload" ~count:100
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 100_000))
    (fun (kind, seed) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg =
        match kind with
        | 0 -> Workloads.Gen.paper_t1 ()
        | 1 -> Workloads.Gen.paper_t2 ()
        | 2 -> Workloads.Gen.chain ~n:(2 + Workloads.Rng.int rng ~bound:6) ()
        | 3 ->
          Workloads.Gen.split_join
            ~branches:(1 + Workloads.Rng.int rng ~bound:4)
            ()
        | 4 ->
          Workloads.Gen.ring
            ~n:(2 + Workloads.Rng.int rng ~bound:4)
            ~initial:(1 + Workloads.Rng.int rng ~bound:3)
            ()
        | _ ->
          Workloads.Gen.multi_job rng
            ~jobs:(1 + Workloads.Rng.int rng ~bound:3)
            ~tasks_per_job:(2 + Workloads.Rng.int rng ~bound:2)
            ~procs:(2 + Workloads.Rng.int rng ~bound:2)
            ()
      in
      let text = Format.asprintf "%a" Config.pp cfg in
      let cfg' = Parse.config_of_string text in
      Format.asprintf "%a" Config.pp cfg' = text)

let prop_parser_never_crashes =
  (* Mutated inputs must either parse or raise Parse_error — nothing
     else. *)
  QCheck2.Test.make ~name:"parser total on mutated inputs" ~count:300
    QCheck2.Gen.(pair (int_range 0 100_000) (small_string ~gen:printable))
    (fun (seed, junk) ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let base =
        Format.asprintf "%a" Config.pp
          (Workloads.Gen.chain ~n:(2 + Workloads.Rng.int rng ~bound:3) ())
      in
      (* Splice junk at a random position. *)
      let pos = Workloads.Rng.int rng ~bound:(String.length base + 1) in
      let mutated =
        String.sub base 0 pos ^ junk
        ^ String.sub base pos (String.length base - pos)
      in
      match Parse.config_of_string mutated with
      | _ -> true
      | exception Parse.Parse_error _ -> true)

let prop_mapped_parser_total =
  (* Arbitrary byte strings (not just printable mutations) must either
     parse or raise Parse_error with a 1-based line — never escape with
     another exception. *)
  QCheck2.Test.make ~name:"Mapped_io.parse total on arbitrary bytes"
    ~count:500 QCheck2.Gen.string (fun junk ->
      let cfg, _, _, _, _, _, _, _ = sample () in
      match Mapped_io.parse cfg junk with
      | _ -> true
      | exception Mapped_io.Parse_error (line, _) -> line >= 1)

let prop_mapped_roundtrip_random =
  (* print → parse round-trips any mapping whose budgets survive the
     %g rendering exactly (integers up to six significant digits). *)
  QCheck2.Test.make ~name:"Mapped_io print/parse round-trip" ~count:200
    QCheck2.Gen.(
      triple (int_range 1 999_999) (int_range 1 999_999) (int_range 1 10_000))
    (fun (ba, bb, cap) ->
      let cfg, _, _, _, _, wa, wb, b = sample () in
      let mapped =
        {
          Config.budget =
            (fun w ->
              float_of_int
                (if Config.task_id w = Config.task_id wa then ba else bb));
          Config.capacity = (fun _ -> cap);
        }
      in
      let text = Format.asprintf "%a" (Mapped_io.print cfg) mapped in
      let back = Mapped_io.parse cfg text in
      back.Config.budget wa = float_of_int ba
      && back.Config.budget wb = float_of_int bb
      && back.Config.capacity b = cap)



(* ------------------------------------------------------------------ *)
(* Mapped_io                                                           *)
(* ------------------------------------------------------------------ *)

let sample_mapped (_cfg : Config.t) =
  {
    Config.budget = (fun w -> 2.0 +. float_of_int (Config.task_id w));
    Config.capacity = (fun b -> 3 + Config.buffer_id b);
  }

let test_mapped_roundtrip () =
  let cfg, _, _, _, _, wa, wb, b = sample () in
  let mapped = sample_mapped cfg in
  let text = Format.asprintf "%a" (Mapped_io.print cfg) mapped in
  let back = Mapped_io.parse cfg text in
  check_float 0.0 "budget wa" (mapped.Config.budget wa) (back.Config.budget wa);
  check_float 0.0 "budget wb" (mapped.Config.budget wb) (back.Config.budget wb);
  Alcotest.(check int) "capacity" (mapped.Config.capacity b)
    (back.Config.capacity b)

let expect_mapped_error ?line cfg text =
  match Mapped_io.parse cfg text with
  | exception Mapped_io.Parse_error (l, _) -> begin
    match line with
    | None -> ()
    | Some expected -> Alcotest.(check int) "line" expected l
  end
  | _ -> Alcotest.fail "expected a parse error"

let test_mapped_errors () =
  let cfg, _, _, _, _, _, _, _ = sample () in
  (* missing entries are blamed on the last line *)
  expect_mapped_error ~line:1 cfg "budget wa 4";
  expect_mapped_error ~line:1 cfg "";
  (* unknown names *)
  expect_mapped_error ~line:1 cfg "budget nosuch 4";
  expect_mapped_error ~line:1 cfg "capacity nosuch 4";
  (* duplicates *)
  expect_mapped_error ~line:2 cfg
    "budget wa 4\nbudget wa 5\nbudget wb 4\ncapacity bab 4";
  (* invalid values *)
  expect_mapped_error ~line:1 cfg
    "budget wa 0\nbudget wb 4\ncapacity bab 4";
  (* capacity below initial tokens (bab has iota = 1... capacity 0) *)
  expect_mapped_error ~line:3 cfg
    "budget wa 4\nbudget wb 4\ncapacity bab 0";
  (* junk line *)
  expect_mapped_error ~line:1 cfg "hello world"

let test_mapped_comments_ok () =
  let cfg, _, _, _, _, wa, _, _ = sample () in
  let mapped =
    Mapped_io.parse cfg
      "# a mapping\nbudget wa 4\nbudget wb 6\ncapacity bab 2\n"
  in
  check_float 0.0 "wa" 4.0 (mapped.Config.budget wa)


let () =
  Alcotest.run "taskgraph"
    [
      ( "config",
        [
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "collections" `Quick test_collections;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "duplicate names" `Quick
            test_duplicate_names_rejected;
          Alcotest.test_case "duplicate across kinds" `Quick
            test_duplicate_across_kinds;
          Alcotest.test_case "store growth" `Quick test_store_growth;
          Alcotest.test_case "copy independent" `Quick test_copy_independent;
          Alcotest.test_case "cross-graph buffer" `Quick
            test_cross_graph_buffer_rejected;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
          Alcotest.test_case "validate flags impossible" `Quick
            test_validate_flags_impossible;
          Alcotest.test_case "validate clean" `Quick test_validate_clean;
        ] );
      ( "parse",
        [
          Alcotest.test_case "sample" `Quick test_parse_sample;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick
            test_parse_comments_and_blanks;
          Alcotest.test_case "semantic error line" `Quick
            test_parse_semantic_error_has_line;
        ] );
      ( "mapped-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_mapped_roundtrip;
          Alcotest.test_case "errors" `Quick test_mapped_errors;
          Alcotest.test_case "comments" `Quick test_mapped_comments_ok;
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip_generated; prop_parser_never_crashes;
            prop_mapped_parser_total; prop_mapped_roundtrip_random;
          ] );
    ]
