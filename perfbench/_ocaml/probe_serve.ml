(* Serving layers.  Request: [NAME CFG REQUEST REPLY JOURNAL REPS],
   where REQUEST and REPLY hold one admit line and its reply as
   captured on the wire.  Times the canonical cache key, the line
   codecs on those real messages, and one durable journal append of a
   cache-entry-sized payload. *)

open Pbutil

let fail name msg = Printf.printf "%s error %s\n%!" name msg

let () =
  each_request @@ function
  | [ name; cfg_path; req_path; rep_path; journal_path; reps ] -> (
    let reps = int_of_string reps in
    let cfg = Taskgraph.Parse.config_of_file cfg_path in
    let key, key_s = timed ~reps (fun () -> Serve.Cache.canonical_key cfg) in
    emit name "serve.canonical_key_s" key_s;
    let req_line = String.trim (read_file req_path) in
    let rep_line = String.trim (read_file rep_path) in
    (match Serve.Protocol.request_of_line req_line with
    | Error e -> fail name e
    | Ok req ->
      let _, s = timed ~reps (fun () -> Serve.Protocol.request_to_line req) in
      emit name "protocol.encode_s" s);
    let r, s = timed ~reps (fun () -> Serve.Protocol.response_of_line rep_line) in
    (match r with Error e -> fail name e | Ok _ -> emit name "protocol.decode_s" s);
    let fingerprint = Durable.Journal.fingerprint [ "perfbench" ] in
    match Durable.Journal.resume ~fingerprint journal_path with
    | Error e -> fail name e
    | Ok j ->
      let payload = Printf.sprintf "solved %S %S" key rep_line in
      let i = ref 0 in
      let _, s =
        timed ~reps (fun () ->
            Durable.Journal.record j ~index:!i ~payload;
            incr i)
      in
      Durable.Journal.close j;
      emit name "durable.record_s" s)
  | name :: _ -> Printf.printf "%s error malformed request\n%!" name
  | [] -> ()
