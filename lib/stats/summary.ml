type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p10 : float;
  p90 : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if q < 0. || q > 1. then invalid_arg "Summary.percentile: q out of range";
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let of_array sample =
  let n = Array.length sample in
  if n = 0 then invalid_arg "Summary.of_array: empty sample";
  let sorted = Array.copy sample in
  Array.sort Float.compare sorted;
  let sum = Array.fold_left ( +. ) 0. sorted in
  let mean = sum /. float_of_int n in
  let sq =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. sorted
  in
  let stddev = if n < 2 then 0. else sqrt (sq /. float_of_int (n - 1)) in
  {
    count = n;
    mean;
    stddev;
    min = sorted.(0);
    max = sorted.(n - 1);
    median = percentile sorted 0.5;
    p10 = percentile sorted 0.1;
    p90 = percentile sorted 0.9;
  }

let of_list l = of_array (Array.of_list l)

let ci95_halfwidth t =
  if t.count < 2 then 0. else 1.96 *. t.stddev /. sqrt (float_of_int t.count)

let pp ppf t =
  Format.fprintf ppf "%.3g ± %.2g [%.3g, %.3g]" t.mean (ci95_halfwidth t) t.min
    t.max
