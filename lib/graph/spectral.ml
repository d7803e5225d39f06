module Rng = Rumor_rng.Rng

let norm x = sqrt (Array.fold_left (fun s v -> s +. (v *. v)) 0. x)

let deflate_ones x =
  let n = Array.length x in
  if n > 0 then begin
    let mean = Array.fold_left ( +. ) 0. x /. float_of_int n in
    for i = 0 to n - 1 do
      x.(i) <- x.(i) -. mean
    done
  end

let multiply g x y =
  let n = Graph.n g in
  for v = 0 to n - 1 do
    let acc = ref 0. in
    Graph.iter_neighbors g v (fun w -> acc := !acc +. x.(w));
    y.(v) <- !acc
  done

let lambda2 g ~rng ~iters =
  let n = Graph.n g in
  if n <= 1 then 0.
  else begin
    let x = Array.init n (fun _ -> Rng.float rng -. 0.5) in
    let y = Array.make n 0. in
    deflate_ones x;
    let nx = norm x in
    if nx = 0. then 0.
    else begin
      Array.iteri (fun i v -> x.(i) <- v /. nx) x;
      let estimate = ref 0. in
      for _ = 1 to max iters 1 do
        multiply g x y;
        deflate_ones y;
        let ny = norm y in
        if ny > 0. then begin
          estimate := ny;
          for i = 0 to n - 1 do
            x.(i) <- y.(i) /. ny
          done
        end
      done;
      !estimate
    end
  end

let ramanujan_bound d = 2. *. sqrt (float_of_int (max (d - 1) 0))
