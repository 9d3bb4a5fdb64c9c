(* Timing and line-protocol helpers shared by the layer probes.  Every
   probe reads whitespace-separated requests from stdin and answers
   with "NAME METRIC VALUE" lines on stdout. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [timed ~reps f] runs [f] [reps] times and returns the last result
   with the median wall time of one call. *)
let timed ~reps f =
  let last = ref None in
  let samples =
    List.init (max 1 reps) (fun _ ->
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let dt = Unix.gettimeofday () -. t0 in
        last := Some r;
        dt)
  in
  (Option.get !last, median samples)

let emit name metric value = Printf.printf "%s %s %.9g\n%!" name metric value

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* [each_request f] calls [f] on the words of every non-empty stdin
   line; a request that raises is reported as "NAME error MESSAGE" and
   the probe moves on to the next one. *)
let each_request f =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      (match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> ()
      | (name :: _) as words -> (
        try f words
        with e -> Printf.printf "%s error %s\n%!" name (Printexc.to_string e))
      | [] -> ());
      loop ()
  in
  loop ()
