(* Exact arithmetic and certification tests.

   Unit vectors for Bigint (limb and overflow boundaries, decimal
   round-trips), Rat (normalization, lossless of_float), the exact
   Bellman-Ford, and the certification properties: solver-accepted
   mappings are Certified, granule-down mutations are Refuted. *)

module B = Exact.Bigint
module R = Exact.Rat

let check = Alcotest.check
let bstr = Alcotest.testable B.pp B.equal
let rstr = Alcotest.testable R.pp R.equal

(* ------------------------------------------------------------------ *)
(* Bigint units                                                       *)
(* ------------------------------------------------------------------ *)

let test_bigint_small_ops () =
  check bstr "add" (B.of_int 7) (B.add (B.of_int 3) (B.of_int 4));
  check bstr "sub to negative" (B.of_int (-1)) (B.sub (B.of_int 3) (B.of_int 4));
  check bstr "mul" (B.of_int (-12)) (B.mul (B.of_int 3) (B.of_int (-4)));
  check bstr "neg zero" B.zero (B.neg B.zero);
  check Alcotest.int "sign neg" (-1) (B.sign (B.of_int (-5)));
  check Alcotest.(option int) "to_int" (Some (-42)) (B.to_int (B.of_int (-42)))

let test_bigint_limb_boundaries () =
  (* Around the 2^30 limb base and the 2^62 native-int edge. *)
  List.iter
    (fun n ->
      let s = B.to_string (B.of_int n) in
      check Alcotest.string "decimal round-trip" (string_of_int n) s;
      check bstr "of_string round-trip" (B.of_int n) (B.of_string s))
    [
      0; 1; -1; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1; -(1 lsl 30);
      (1 lsl 60) - 1; 1 lsl 60; max_int; min_int + 1;
    ];
  check Alcotest.(option int) "max_int to_int" (Some max_int)
    (B.to_int (B.of_int max_int));
  (* 2^62 no longer fits a native int. *)
  check Alcotest.(option int) "2^62 overflows to_int" None
    (B.to_int (B.shift_left B.one 62))

let test_bigint_int64_min () =
  let v = B.of_int64 Int64.min_int in
  check Alcotest.string "|int64 min|" "-9223372036854775808" (B.to_string v)

let test_bigint_mul_carry_chain () =
  (* (2^90 - 1)^2 = 2^180 - 2^91 + 1 exercises multi-limb carries. *)
  let p = B.sub (B.shift_left B.one 90) B.one in
  let sq = B.mul p p in
  let expect =
    B.add (B.sub (B.shift_left B.one 180) (B.shift_left B.one 91)) B.one
  in
  check bstr "(2^90-1)^2" expect sq

let test_bigint_divmod () =
  let a = B.of_string "123456789012345678901234567890" in
  let b = B.of_string "987654321987" in
  let q, r = B.divmod a b in
  check bstr "a = q*b + r" a (B.add (B.mul q b) r);
  check Alcotest.bool "0 <= r < b" true
    (B.sign r >= 0 && B.compare r b < 0);
  (* Truncation towards zero matches native semantics. *)
  let q', r' = B.divmod (B.of_int (-7)) (B.of_int 2) in
  check bstr "(-7)/2" (B.of_int (-3)) q';
  check bstr "(-7) mod 2" (B.of_int (-1)) r';
  check Alcotest.bool "div by zero" true
    (match B.divmod a B.zero with
    | exception Division_by_zero -> true
    | _ -> false)

let test_bigint_gcd_lcm () =
  check bstr "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  check bstr "gcd with zero" (B.of_int 7) (B.gcd B.zero (B.of_int 7));
  check bstr "lcm" (B.of_int 36) (B.lcm (B.of_int 12) (B.of_int 18));
  let a = B.shift_left (B.of_int 3) 40 and b = B.shift_left (B.of_int 5) 35 in
  check bstr "gcd of shifted" (B.shift_left B.one 35) (B.gcd a b)

let test_bigint_string_big () =
  let s = "170141183460469231731687303715884105727" (* 2^127 - 1 *) in
  let v = B.of_string s in
  check Alcotest.string "round-trip" s (B.to_string v);
  check bstr "2^127 - 1" (B.sub (B.shift_left B.one 127) B.one) v

(* ------------------------------------------------------------------ *)
(* Rat units                                                          *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  check rstr "6/4 = 3/2" (R.of_ints 3 2) (R.of_ints 6 4);
  check rstr "sign in num" (R.of_ints (-3) 2) (R.of_ints 3 (-2));
  check rstr "zero" R.zero (R.of_ints 0 17);
  check rstr "add" (R.of_ints 5 6) (R.add (R.of_ints 1 2) (R.of_ints 1 3));
  check rstr "mul" (R.of_ints 1 3) (R.mul (R.of_ints 2 3) (R.of_ints 1 2));
  check rstr "div" (R.of_ints 4 3) (R.div (R.of_ints 2 3) (R.of_ints 1 2));
  check Alcotest.int "compare" (-1) (R.compare (R.of_ints 1 3) (R.of_ints 1 2));
  check Alcotest.string "pp" "-3/2" (R.to_string (R.of_ints 3 (-2)))

let test_rat_of_float_exact () =
  (* Exactly representable values decode to their dyadic rationals. *)
  check rstr "0.5" (R.of_ints 1 2) (R.of_float 0.5);
  check rstr "-0.75" (R.of_ints (-3) 4) (R.of_float (-0.75));
  check rstr "3.0" (R.of_int 3) (R.of_float 3.0);
  check rstr "2^60" (R.of_bigint (B.shift_left B.one 60)) (R.of_float 1.152921504606846976e18);
  (* 0.1 is NOT one tenth: the decomposition recovers the actual
     double, 3602879701896397 / 2^55. *)
  let tenth = R.of_float 0.1 in
  check Alcotest.bool "fl(0.1) <> 1/10" false (R.equal tenth (R.of_ints 1 10));
  check rstr "fl(0.1) bits"
    (R.make (B.of_string "3602879701896397") (B.shift_left B.one 55))
    tenth;
  check Alcotest.bool "nan rejected" true
    (match R.of_float Float.nan with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check Alcotest.bool "inf rejected" true
    (match R.of_float Float.infinity with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The binary gcd strips trailing zero bits with a multi-limb right
   shift; Euclid's algorithm over [rem] is an independent oracle.  The
   shifts give both operands long runs of trailing zeros, shared or
   not, the way dyadic rationals from floats have them. *)
let test_bigint_gcd_qcheck () =
  let big =
    QCheck.map
      (fun (x, y, k) -> B.add (B.shift_left (B.of_int64 x) k) (B.of_int64 y))
      QCheck.(triple int64 int64 (int_range 0 150))
  in
  QCheck.Test.make ~count:500 ~name:"gcd matches Euclid on multi-limb values"
    QCheck.(quad big big (int_range 0 100) (int_range 0 100))
    (fun (a, b, i, j) ->
      let a = B.shift_left a i and b = B.shift_left b j in
      let rec euclid a b =
        if B.is_zero b then B.abs a else euclid b (B.rem a b)
      in
      B.equal (B.gcd a b) (euclid a b))

(* Division has three paths: native ints below 2^60, short division by
   a single-limb divisor, and long division.  The oracle is the
   definition: a = q·b + r with |r| < |b| and r carrying a's sign.
   Operands are 1–4 limbs, each limb random or a boundary value, or
   one of the limb-boundary integers themselves. *)
let test_bigint_divmod_qcheck () =
  let boundary = [ (1 lsl 30) - 1; 1 lsl 30; (1 lsl 60) - 1 ] in
  let limb =
    QCheck.Gen.(
      frequency
        [
          (3, int_bound ((1 lsl 30) - 1));
          (1, oneofl [ 0; 1; (1 lsl 30) - 1 ]);
        ])
  in
  let magnitude =
    QCheck.Gen.(
      frequency
        [
          ( 4,
            map
              (List.fold_left
                 (fun acc l -> B.add (B.shift_left acc 30) (B.of_int l))
                 B.zero)
              (list_size (int_range 1 4) limb) );
          (1, map B.of_int (oneofl boundary));
        ])
  in
  let operand =
    QCheck.Gen.map2 (fun m neg -> if neg then B.neg m else m) magnitude
      QCheck.Gen.bool
  in
  let divisor =
    QCheck.Gen.map (fun b -> if B.is_zero b then B.one else b) operand
  in
  QCheck.Test.make ~count:2000 ~name:"divmod satisfies its definition"
    (QCheck.make
       ~print:(fun (a, b) -> B.to_string a ^ " / " ^ B.to_string b)
       (QCheck.Gen.pair operand divisor))
    (fun (a, b) ->
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

let test_rat_of_float_roundtrip_qcheck () =
  QCheck.Test.make ~count:500 ~name:"of_float/to_float round-trip"
    QCheck.(float_range (-1e15) 1e15)
    (fun f -> R.to_float (R.of_float f) = f)

let test_rat_denormal () =
  (* Smallest positive subnormal double: 2^-1074, exactly. *)
  let tiny = Float.ldexp 1.0 (-1074) in
  check rstr "2^-1074"
    (R.make B.one (B.shift_left B.one 1074))
    (R.of_float tiny);
  check (Alcotest.float 0.0) "back" tiny (R.to_float (R.of_float tiny))

(* ------------------------------------------------------------------ *)
(* Exact Bellman-Ford                                                 *)
(* ------------------------------------------------------------------ *)

let test_bf_feasible () =
  (* Two nodes, a forward edge of weight 3/2 and a back edge of -2:
     cycle weight -1/2 < 0, so potentials settle. *)
  let edges = [| (0, 1, R.of_ints 3 2); (1, 0, R.of_int (-2)) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible d ->
      check rstr "d0" R.zero d.(0);
      check rstr "d1" (R.of_ints 3 2) d.(1)
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "expected feasible"

let test_bf_zero_cycle_feasible () =
  (* Exactly-zero cycles must be accepted: that is the boundary a float
     checker cannot decide. *)
  let edges = [| (0, 1, R.of_ints 1 3); (1, 0, R.of_ints (-1) 3) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible _ -> ()
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "zero cycle refuted"

let test_bf_positive_cycle () =
  (* Cycle 1 -> 2 -> 1 of weight +1/6; node 0 feeds it. *)
  let edges =
    [|
      (0, 1, R.of_int 1);
      (1, 2, R.of_ints 1 2);
      (2, 1, R.of_ints (-1) 3);
    |]
  in
  match Exact.Bf.longest_path ~nodes:3 edges with
  | Exact.Bf.Feasible _ -> Alcotest.fail "positive cycle missed"
  | Exact.Bf.Positive_cycle cycle ->
      let sorted = List.sort Int.compare cycle in
      check Alcotest.(list int) "witness edges" [ 1; 2 ] sorted;
      let weight =
        List.fold_left
          (fun acc e ->
            let _, _, w = edges.(e) in
            R.add acc w)
          R.zero cycle
      in
      check rstr "excess" (R.of_ints 1 6) weight

let test_bf_self_loop () =
  let edges = [| (0, 0, R.of_ints 1 1000000) |] in
  match Exact.Bf.longest_path ~nodes:1 edges with
  | Exact.Bf.Feasible _ -> Alcotest.fail "positive self-loop missed"
  | Exact.Bf.Positive_cycle cycle ->
      check Alcotest.(list int) "self-loop witness" [ 0 ] cycle

let test_bf_tiny_margin () =
  (* A cycle whose weight is one part in 2^80: far below any float
     epsilon, still decided exactly. *)
  let eps = R.make B.one (B.shift_left B.one 80) in
  let up = R.add (R.of_int 1) eps in
  let edges = [| (0, 1, up); (1, 0, R.of_int (-1)) |] in
  (match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Positive_cycle _ -> ()
  | Exact.Bf.Feasible _ -> Alcotest.fail "2^-80 excess missed");
  let down = R.sub (R.of_int 1) eps in
  let edges = [| (0, 1, down); (1, 0, R.of_int (-1)) |] in
  match Exact.Bf.longest_path ~nodes:2 edges with
  | Exact.Bf.Feasible _ -> ()
  | Exact.Bf.Positive_cycle _ -> Alcotest.fail "-2^-80 slack refuted"

(* ------------------------------------------------------------------ *)
(* Certification properties                                            *)
(* ------------------------------------------------------------------ *)

module Config = Taskgraph.Config
module Mapping = Budgetbuf.Mapping
module Certify = Budgetbuf.Certify

(* Property (a): every mapping the solver accepts (Ok verdict) carries
   an exact certificate.  200 random
   instances spanning single chains and processor-coupled multi-job
   sets; infeasible draws prove nothing and pass vacuously. *)
let test_certify_accepts_qcheck () =
  QCheck.Test.make ~count:200 ~name:"solver-accepted mappings are Certified"
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Workloads.Rng.create (Int64.of_int seed) in
      let cfg =
        if seed mod 2 = 0 then
          Workloads.Gen.random_chain rng ~n:(2 + (seed mod 4)) ()
        else
          Workloads.Gen.multi_job rng
            ~jobs:(1 + (seed mod 3))
            ~tasks_per_job:(2 + (seed mod 2))
            ~procs:(1 + (seed mod 3))
            ()
      in
      match Mapping.solve cfg with
      | Error _ -> true
      | Ok r -> Certify.certified r.Mapping.certificate)

(* Property (b), on a pinned corpus so the verdicts are reproducible:
   lowering every budget by one granule, or every capacity by one
   token, must flip the certificate to Refuted.  (On a single budget or
   buffer this is not a theorem — conservative rounding of the *other*
   variables can leave enough slack to absorb one granule — but the
   all-variables mutation undercuts the continuous optimum itself.) *)
let mutation_corpus () =
  [
    ("paper t1", Workloads.Gen.paper_t1 ());
    ( "paper t1 capped",
      let c = Workloads.Gen.paper_t1 () in
      Config.set_max_capacity c (Config.find_buffer c "bab") (Some 3);
      c );
    ("paper t2", Workloads.Gen.paper_t2 ());
    ("chain", Workloads.Gen.chain ~n:4 ());
    ("ring", Workloads.Gen.ring ~n:4 ~initial:2 ());
    ("split join", Workloads.Gen.split_join ~branches:3 ());
  ]

let test_certify_mutations () =
  List.iter
    (fun (name, cfg) ->
      match Mapping.solve cfg with
      | Error e -> Alcotest.failf "%s: solve failed: %a" name Mapping.pp_error e
      | Ok r ->
        let mapped = r.Mapping.mapped in
        Alcotest.(check bool)
          (name ^ ": accepted mapping certified")
          true
          (Certify.certified r.Mapping.certificate);
        let g = Config.granularity cfg in
        let budgets_down =
          { mapped with Config.budget = (fun w -> mapped.Config.budget w -. g) }
        in
        Alcotest.(check bool)
          (name ^ ": budgets one granule down refuted")
          false
          (Certify.certified (Certify.check cfg budgets_down));
        let capacities_down =
          {
            mapped with
            Config.capacity = (fun b -> mapped.Config.capacity b - 1);
          }
        in
        Alcotest.(check bool)
          (name ^ ": capacities one token down refuted")
          false
          (Certify.certified (Certify.check cfg capacities_down)))
    (mutation_corpus ())

(* ------------------------------------------------------------------ *)
(* The single checker: every verdict is the exact certificate's        *)
(* ------------------------------------------------------------------ *)

module Violation = Budgetbuf.Violation
module Two_phase = Budgetbuf.Two_phase
module Slp = Budgetbuf.Slp

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

(* One budget too small for µ, a capacity over both its bound and the
   memory: the certificate lists all three, in check order. *)
let test_certify_lists_every_violation () =
  let cfg = Workloads.Gen.paper_t1 () in
  let bab = Config.find_buffer cfg "bab" in
  Config.set_max_capacity cfg bab (Some 5);
  let mapped =
    { Config.budget = (fun _ -> 1.0); Config.capacity = (fun _ -> 2000) }
  in
  let cert = Certify.check cfg mapped in
  Alcotest.(check (list string))
    "throughput, memory and buffer bound"
    [ "throughput"; "mem-capacity"; "buffer-bound" ]
    (List.map Violation.constraint_id (Certify.violations cert));
  (match cert with
  | Certify.Refuted (Certify.Positive_cycle { graph; period; _ } :: _) ->
    Alcotest.(check string) "cycle graph" "t1" graph;
    Alcotest.(check (float 0.0)) "cycle period" 10.0 period
  | _ -> Alcotest.fail "expected a positive cycle first");
  Alcotest.(check int) "summary joins all three" 2
    (List.length (String.split_on_char ';' (Certify.summary cert)) - 1);
  (* Budgets with no SRDF: the graph is not Bellman–Forded, and the
     non-finite budget's processor is not summed. *)
  let wa = Config.find_task cfg "wa" in
  let undefined =
    {
      Config.budget = (fun w -> if w = wa then Float.nan else 50.0);
      Config.capacity = (fun _ -> 5);
    }
  in
  Alcotest.(check (list string))
    "no SRDF" [ "non-finite"; "budget-range"; "proc-capacity" ]
    (List.map Violation.constraint_id
       (Certify.violations (Certify.check cfg undefined)))

(* The min-budget two-phase baseline rounds onto cycles that overshoot
   µ by about 2^-50: accepted by a tolerant float check, refuted
   exactly, and so a [Solver_failure] naming the cycle. *)
let test_two_phase_min_budget_refuted () =
  List.iter
    (fun (name, make) ->
      match Two_phase.budget_first ~policy:Two_phase.Min_budget (make ()) with
      | Error (Two_phase.Solver_failure msg) ->
        Alcotest.(check bool)
          (name ^ ": names the positive cycle")
          true
          (contains msg "failed verification" && contains msg "positive cycle")
      | Error e ->
        Alcotest.failf "%s: wrong error: %a" name Two_phase.pp_error e
      | Ok _ -> Alcotest.failf "%s: refuted mapping returned Ok" name)
    [
      ("modem", Workloads.Apps.modem);
      ("car-radio", Workloads.Apps.car_radio);
      ("mp3-playback", Workloads.Apps.mp3_playback);
    ]

let test_slp_unverified_on_apps () =
  List.iter
    (fun (name, make) ->
      match Slp.solve (make ()) with
      | Error e -> Alcotest.failf "%s: slp failed: %a" name Slp.pp_error e
      | Ok o ->
        Alcotest.(check bool) (name ^ ": not verified") false o.Slp.verified)
    [ ("modem", Workloads.Apps.modem); ("car-radio", Workloads.Apps.car_radio) ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest [ test_rat_of_float_roundtrip_qcheck () ] in
  let cert_qsuite =
    List.map QCheck_alcotest.to_alcotest [ test_certify_accepts_qcheck () ]
  in
  Alcotest.run "exact"
    [
      ( "bigint",
        [
          Alcotest.test_case "small ops" `Quick test_bigint_small_ops;
          Alcotest.test_case "limb boundaries" `Quick test_bigint_limb_boundaries;
          Alcotest.test_case "int64 min" `Quick test_bigint_int64_min;
          Alcotest.test_case "mul carries" `Quick test_bigint_mul_carry_chain;
          Alcotest.test_case "divmod" `Quick test_bigint_divmod;
          Alcotest.test_case "gcd lcm" `Quick test_bigint_gcd_lcm;
          Alcotest.test_case "big decimal" `Quick test_bigint_string_big;
          QCheck_alcotest.to_alcotest (test_bigint_gcd_qcheck ());
          QCheck_alcotest.to_alcotest (test_bigint_divmod_qcheck ());
        ] );
      ( "rat",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "of_float exact" `Quick test_rat_of_float_exact;
          Alcotest.test_case "denormal" `Quick test_rat_denormal;
        ]
        @ qsuite );
      ( "bf",
        [
          Alcotest.test_case "feasible" `Quick test_bf_feasible;
          Alcotest.test_case "zero cycle" `Quick test_bf_zero_cycle_feasible;
          Alcotest.test_case "positive cycle" `Quick test_bf_positive_cycle;
          Alcotest.test_case "self loop" `Quick test_bf_self_loop;
          Alcotest.test_case "tiny margin" `Quick test_bf_tiny_margin;
        ] );
      ( "certify",
        Alcotest.test_case "mutations refuted" `Quick test_certify_mutations
        :: cert_qsuite );
      ( "checker",
        [
          Alcotest.test_case "every violation listed" `Quick
            test_certify_lists_every_violation;
          Alcotest.test_case "two-phase min-budget refuted" `Quick
            test_two_phase_min_budget_refuted;
          Alcotest.test_case "slp unverified on apps" `Quick
            test_slp_unverified_on_apps;
        ] );
    ]
