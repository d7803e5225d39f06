include Rumor_rng.Rng

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = int t 2 = 1

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a
