module Rng = Rumor_rng.Rng
include Rumor_rng.Dist

let uniform t ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo +. ((hi -. lo) *. Rng.float t)

let normal t ~mu ~sigma =
  if sigma < 0. then invalid_arg "Dist.normal: sigma < 0";
  let rec polar () =
    let u = (2. *. Rng.float t) -. 1. in
    let v = (2. *. Rng.float t) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || s = 0. then polar ()
    else u *. sqrt (-2. *. log s /. s)
  in
  mu +. (sigma *. polar ())

(* Geometric skipping (BG algorithm): expected time O(n*p + 1). For the
   parameter ranges in this project (n*p modest) this is exact and fast. *)
let binomial_small t n p =
  let lq = log (1. -. p) in
  let count = ref 0 in
  let pos = ref (-1) in
  let continue = ref true in
  while !continue do
    let u = 1. -. Rng.float t in
    let skip = int_of_float (floor (log u /. lq)) in
    pos := !pos + skip + 1;
    if !pos < n then incr count else continue := false
  done;
  !count

let binomial t ~n ~p =
  if n < 0 then invalid_arg "Dist.binomial: n < 0";
  if p < 0. || p > 1. then invalid_arg "Dist.binomial: p out of range";
  if p = 0. || n = 0 then 0
  else if p = 1. then n
  else if p > 0.5 then n - binomial_small t n (1. -. p)
  else binomial_small t n p

let rec poisson t ~lambda =
  if lambda < 0. then invalid_arg "Dist.poisson: lambda < 0";
  if lambda = 0. then 0
  else if lambda > 30. then begin
    (* Split: Poisson(a+b) = Poisson(a) + Poisson(b). *)
    let half = lambda /. 2. in
    poisson t ~lambda:half + poisson t ~lambda:(lambda -. half)
  end
  else begin
    let limit = exp (-.lambda) in
    let k = ref 0 in
    let prod = ref (Rng.float t) in
    while !prod > limit do
      incr k;
      prod := !prod *. Rng.float t
    done;
    !k
  end
