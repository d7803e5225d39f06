let exponential t ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate <= 0";
  (* 1 - U avoids log 0. *)
  -.log (1. -. Rng.float t) /. rate

let geometric t ~p =
  if p <= 0. || p > 1. then invalid_arg "Dist.geometric: p out of range";
  if p = 1. then 0
  else
    let u = 1. -. Rng.float t in
    int_of_float (floor (log u /. log (1. -. p)))

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n <= 0";
  if s < 0. then invalid_arg "Dist.zipf: s < 0";
  if s = 0. then Rng.int t n
  else begin
    (* Hörmann–Derflinger rejection-inversion for ranks 1..n with pmf
       proportional to k^(-s) (the algorithm behind Apache Commons'
       Zipf sampler). H is the integral of the envelope x^(-s); at
       s = 1 it degenerates to log. *)
    let nf = float_of_int n in
    let h_integral x =
      if s = 1. then log x else ((x ** (1. -. s)) -. 1.) /. (1. -. s)
    in
    let h_integral_inverse y =
      if s = 1. then exp y
      else ((y *. (1. -. s)) +. 1.) ** (1. /. (1. -. s))
    in
    let h x = x ** -.s in
    let hi1 = h_integral 1.5 -. 1. in
    let hin = h_integral (nf +. 0.5) in
    let threshold = 2. -. h_integral_inverse (h_integral 2.5 -. h 2.) in
    let rec draw () =
      let u = hin +. (Rng.float t *. (hi1 -. hin)) in
      let x = h_integral_inverse u in
      let k = Float.round x in
      let k = if k < 1. then 1. else if k > nf then nf else k in
      if k -. x <= threshold then int_of_float k - 1
      else if u >= h_integral (k +. 0.5) -. h k then int_of_float k - 1
      else draw ()
    in
    draw ()
  end
