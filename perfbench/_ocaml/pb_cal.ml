(* Calibration kernel: fill freshly allocated memory, twice.  On a
   shared virtual machine the program's jobs slow down with the host's
   memory traffic and page-fault cost far more than with its arithmetic
   throughput; timed side by side over minutes of changing load, this
   kernel tracked the solver's latency (slope about 1) where a dense
   floating-point kernel moved twice as much as the jobs did.  It
   depends on the OCaml standard library only, so no change to the
   program under test can change its cost. *)

let () =
  let n = 4_000_000 (* 32 MB of floats *) in
  let s = ref 0.0 in
  for r = 1 to 2 do
    let a = Array.make n 0.0 in
    for i = 0 to n - 1 do
      a.(i) <- float_of_int (i + r)
    done;
    s := !s +. a.(n - 1);
    Gc.compact ()
  done;
  if !s < 0.0 then print_string "unreachable"
