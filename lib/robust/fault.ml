module Socp = Conic.Socp

type process = Crash | Hang | Oom

type kind = Solver of Socp.fault | Bad_round | Process of process

type plan = {
  kind : kind;
  iteration : int;
  attempts : int;
  only : int option;
}

let stall_first =
  { kind = Solver Socp.Stall; iteration = 0; attempts = 1; only = None }

let of_string spec =
  let spec = String.trim spec in
  match String.split_on_char ',' spec with
  | [] | [ "" ] -> Error "empty fault spec"
  | kind :: opts -> begin
    match
      (match String.trim kind with
      | "stall" -> Ok (Solver Socp.Stall)
      | "nan" -> Ok (Solver Socp.Nan)
      | "slow" -> Ok (Solver Socp.Slow)
      | "bad_round" -> Ok Bad_round
      | "crash" -> Ok (Process Crash)
      | "hang" -> Ok (Process Hang)
      | "oom" -> Ok (Process Oom)
      | k ->
        Error
          (Printf.sprintf
             "unknown fault kind %S (expected stall, nan, slow, bad_round, \
              crash, hang or oom)" k))
    with
    | Error _ as e -> e
    | Ok kind ->
      let parse_int name v =
        match int_of_string_opt (String.trim v) with
        | Some n when n >= 0 -> Ok n
        | Some _ | None ->
          Error (Printf.sprintf "fault spec: %s expects a non-negative integer, got %S" name v)
      in
      List.fold_left
        (fun acc opt ->
          match acc with
          | Error _ as e -> e
          | Ok plan -> begin
            match String.index_opt opt '=' with
            | None -> Error (Printf.sprintf "fault spec: malformed option %S" opt)
            | Some i ->
              let key = String.trim (String.sub opt 0 i) in
              let v = String.sub opt (i + 1) (String.length opt - i - 1) in
              (match key with
              | "iter" ->
                Result.map (fun n -> { plan with iteration = n }) (parse_int "iter" v)
              | "attempts" -> begin
                match String.trim v with
                | "all" -> Ok { plan with attempts = max_int }
                | v -> begin
                  match int_of_string_opt v with
                  | Some n when n >= 1 -> Ok { plan with attempts = n }
                  | Some _ | None ->
                    Error
                      (Printf.sprintf
                         "fault spec: attempts expects a positive integer or \
                          \"all\", got %S" v)
                end
              end
              | "only" ->
                Result.map (fun n -> { plan with only = Some n }) (parse_int "only" v)
              | k -> Error (Printf.sprintf "fault spec: unknown option %S" k))
          end)
        (Ok { stall_first with kind })
        opts
  end

let kind_name = function
  | Solver Socp.Stall -> "stall"
  | Solver Socp.Nan -> "nan"
  | Solver Socp.Slow -> "slow"
  | Bad_round -> "bad_round"
  | Process Crash -> "crash"
  | Process Hang -> "hang"
  | Process Oom -> "oom"

let to_string plan =
  let kind = kind_name plan.kind in
  let b = Buffer.create 32 in
  Buffer.add_string b kind;
  if plan.iteration <> 0 then
    Buffer.add_string b (Printf.sprintf ",iter=%d" plan.iteration);
  if plan.attempts <> 1 then
    Buffer.add_string b
      (if plan.attempts = max_int then ",attempts=all"
       else Printf.sprintf ",attempts=%d" plan.attempts);
  (match plan.only with
  | None -> ()
  | Some i -> Buffer.add_string b (Printf.sprintf ",only=%d" i));
  Buffer.contents b

let of_env () =
  match Sys.getenv_opt "BUDGETBUF_FAULT" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> begin
    match of_string s with
    | Ok plan -> Some plan
    | Error msg ->
      invalid_arg (Printf.sprintf "BUDGETBUF_FAULT: %s" msg)
  end

let for_candidate plan ~index =
  match plan with
  | None -> None
  | Some { only = None; _ } -> plan
  | Some ({ only = Some i; _ } as p) ->
    if i = index then Some { p with only = None } else None

let covers plan ~attempt =
  match plan with
  | None | Some { kind = Bad_round | Process _; _ } -> false
  | Some p -> attempt <= p.attempts

let process_kind = function
  | Some { kind = Process p; _ } -> Some p
  | Some _ | None -> None

let inject plan ~attempt =
  match plan with
  | Some ({ kind = Solver fault; _ } as p) when attempt <= p.attempts ->
    Some (fun iter -> if iter = p.iteration then Some fault else None)
  | Some _ | None -> None

let corrupts_rounding = function
  | Some { kind = Bad_round; _ } -> true
  | Some _ | None -> false

(* Deterministic schedule randomness: splitmix64 output mixing over a
   (seed, salt, ordinal) triple.  Chaos schedules and client backoff
   jitter both key on this, so the same seed replays the same decision
   sequence byte for byte on any platform. *)

let mix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let det_bits ~seed ~salt n =
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter
    (fun c -> h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
    salt;
  mix64 (Int64.logxor !h (Int64.of_int n))

let det_int ~seed ~salt ~bound n =
  if bound <= 0 then invalid_arg "Fault.det_int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (det_bits ~seed ~salt n) 2) in
  v mod bound

let det_float ~seed ~salt n =
  let v = Int64.to_float (Int64.shift_right_logical (det_bits ~seed ~salt n) 11) in
  v *. 0x1p-53
