module Vec = Linalg.Vec

type scaling = { row : Vec.t; col : Vec.t; obj : float }

let dynamic_range g =
  let mx = ref 0.0 and mn = ref infinity in
  for i = 0 to Sparse_rows.rows g - 1 do
    List.iter
      (fun (_, v) ->
        let v = Float.abs v in
        if v > 0.0 then begin
          if v > !mx then mx := v;
          if v < !mn then mn := v
        end)
      (Sparse_rows.row g i)
  done;
  if !mx = 0.0 then 1.0 else !mx /. !mn

let auto_threshold = 1e6
let badly_scaled g = dynamic_range g > auto_threshold

(* Ruiz on the stored entries only: zeros add nothing to an ∞-norm and
   stay zero under scaling.  Entries that underflow to zero on the way
   are kept until the final [of_rows], which drops them. *)
let equilibrate ?(iterations = 10) ~c ~g ~h cone =
  let m = Sparse_rows.rows g and n = Sparse_rows.cols g in
  let a = Array.init m (Sparse_rows.row g) in
  let row = Vec.make m 1.0 and col = Vec.make n 1.0 in
  (* The rows of one SOC block must end up with a common scale factor,
     because s ∈ SOC(q) only survives multiplication by a *uniform*
     positive factor. *)
  let groups = Cone.soc_blocks cone in
  let rnorm = Vec.create m and cnorm = Vec.create n in
  for _ = 1 to iterations do
    Vec.fill rnorm 0.0;
    Vec.fill cnorm 0.0;
    Array.iteri
      (fun i entries ->
        List.iter
          (fun (j, v) ->
            let v = Float.abs v in
            if v > rnorm.(i) then rnorm.(i) <- v;
            if v > cnorm.(j) then cnorm.(j) <- v)
          entries)
      a;
    List.iter
      (fun (off, len) ->
        let mx = ref 0.0 in
        for i = off to off + len - 1 do
          if rnorm.(i) > !mx then mx := rnorm.(i)
        done;
        for i = off to off + len - 1 do
          rnorm.(i) <- !mx
        done)
      groups;
    let d i = if rnorm.(i) > 0.0 then 1.0 /. sqrt rnorm.(i) else 1.0 in
    let e j = if cnorm.(j) > 0.0 then 1.0 /. sqrt cnorm.(j) else 1.0 in
    for i = 0 to m - 1 do
      let di = d i in
      row.(i) <- row.(i) *. di;
      a.(i) <- List.map (fun (j, v) -> (j, v *. di *. e j)) a.(i)
    done;
    for j = 0 to n - 1 do
      col.(j) <- col.(j) *. e j
    done
  done;
  let obj =
    let mx = ref 0.0 in
    for j = 0 to n - 1 do
      let v = Float.abs (col.(j) *. c.(j)) in
      if v > !mx then mx := v
    done;
    if !mx > 0.0 then 1.0 /. !mx else 1.0
  in
  let t = { row; col; obj } in
  let c' = Vec.init n (fun j -> obj *. col.(j) *. c.(j)) in
  let h' = Vec.init m (fun i -> row.(i) *. h.(i)) in
  (t, c', Sparse_rows.of_rows ~cols:n a, h')

let scale_point t ~x ~s ~z =
  let x' = Vec.init (Vec.dim x) (fun j -> x.(j) /. t.col.(j)) in
  let s' = Vec.init (Vec.dim s) (fun i -> s.(i) *. t.row.(i)) in
  let z' = Vec.init (Vec.dim z) (fun i -> z.(i) *. t.obj /. t.row.(i)) in
  (x', s', z')

let unscale_point t ~x ~s ~z =
  let x' = Vec.init (Vec.dim x) (fun j -> t.col.(j) *. x.(j)) in
  let s' = Vec.init (Vec.dim s) (fun i -> s.(i) /. t.row.(i)) in
  let z' = Vec.init (Vec.dim z) (fun i -> t.row.(i) *. z.(i) /. t.obj) in
  (x', s', z')
