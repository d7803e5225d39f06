type t = Xoshiro.t

let create seed = Xoshiro.create (Int64.of_int seed)
let copy = Xoshiro.copy

let split t =
  let s0 = Xoshiro.next t in
  let s1 = Xoshiro.next t in
  let s2 = Xoshiro.next t in
  let s3 = Xoshiro.next t in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    Xoshiro.of_state 1L s1 s2 s3
  else Xoshiro.of_state s0 s1 s2 s3

let fork t i =
  let probe = Xoshiro.copy t in
  let base = Xoshiro.next probe in
  let sm = Splitmix64.create (Int64.logxor base (Int64.of_int (i * 2 + 1))) in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    Xoshiro.of_state 1L s1 s2 s3
  else Xoshiro.of_state s0 s1 s2 s3

let bits64 = Xoshiro.next

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  Xoshiro.below t bound

let float t = float_of_int (Xoshiro.bits53 t) *. 0x1.0p-53

(* [float] is expanded by hand so the draw stays an unboxed compare —
   calling [float t] would box its result at the function return. *)
let bernoulli t p =
  if p <= 0. then false
  else if p >= 1. then true
  else float_of_int (Xoshiro.bits53 t) *. 0x1.0p-53 < p

let shuffle_prefix t a k =
  let n = Array.length a in
  if k < 0 || k > n then invalid_arg "Rng.shuffle_prefix";
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle t a = shuffle_prefix t a (Array.length a)

let distinct_into t ~bound ~k out =
  if k < 0 || k > bound then invalid_arg "Rng.distinct_into: k out of range";
  if Array.length out < k then invalid_arg "Rng.distinct_into: out too short";
  if 2 * k <= bound then begin
    (* Rejection: for k <= bound/2 the expected number of retries per
       position is at most 1, and k is tiny (4 in the paper's model). *)
    Xoshiro.distinct_into t ~bound ~k out;
    k
  end
  else begin
    (* Dense case: partial Fisher–Yates over a scratch identity array. *)
    let scratch = Array.init bound (fun i -> i) in
    shuffle_prefix t scratch k;
    Array.blit scratch 0 out 0 k;
    k
  end

let distinct t ~bound ~k =
  let out = Array.make (max k 1) 0 in
  let _ = distinct_into t ~bound ~k out in
  Array.sub out 0 k
