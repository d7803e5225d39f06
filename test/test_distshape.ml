(* Statistical shape validation of the samplers in Rumor_rng.Dist:
   chi-square goodness-of-fit against the exact probability mass
   functions. These tests are stronger than the moment checks in
   test_rng.ml — a sampler with the right mean but the wrong shape
   fails here. Sample sizes and significance levels are chosen so the
   false-failure probability per test is ~1%, and the seeds are fixed,
   so the suite is deterministic. *)

module Rng = Rumor_test_support.Rng
module Dist = Rumor_test_support.Dist
module Chisq = Rumor_test_support.Chisq

let log_fact =
  let memo = Hashtbl.create 64 in
  fun n ->
    match Hashtbl.find_opt memo n with
    | Some x -> x
    | None ->
        let rec go acc k = if k <= 1 then acc else go (acc +. log (float_of_int k)) (k - 1) in
        let x = go 0. n in
        Hashtbl.add memo n x;
        x

let binomial_pmf ~n ~p k =
  exp
    (log_fact n -. log_fact k -. log_fact (n - k)
    +. (float_of_int k *. log p)
    +. (float_of_int (n - k) *. log (1. -. p)))

let poisson_pmf ~lambda k =
  exp ((float_of_int k *. log lambda) -. lambda -. log_fact k)

let geometric_pmf ~p k = p *. ((1. -. p) ** float_of_int k)

(* Build observed counts for values 0..cells-2 plus a tail cell, and the
   matching expected counts from the pmf. *)
let fit ~seed ~samples ~cells ~pmf ~draw =
  let rng = Rng.create seed in
  let observed = Array.make cells 0 in
  for _ = 1 to samples do
    let x = draw rng in
    let cell = if x >= cells - 1 then cells - 1 else x in
    observed.(cell) <- observed.(cell) + 1
  done;
  let expected =
    Array.init cells (fun i ->
        if i < cells - 1 then float_of_int samples *. pmf i
        else begin
          let head = ref 0. in
          for j = 0 to cells - 2 do
            head := !head +. pmf j
          done;
          float_of_int samples *. (1. -. !head)
        end)
  in
  Chisq.goodness_of_fit ~observed ~expected

let check_fit name outcome =
  Alcotest.(check bool)
    (Printf.sprintf "%s matches its pmf (p=%.4f)" name outcome.Chisq.p_value)
    true
    (outcome.Chisq.p_value >= 0.01)

let test_geometric_shape () =
  check_fit "geometric(0.3)"
    (fit ~seed:1 ~samples:50_000 ~cells:12
       ~pmf:(geometric_pmf ~p:0.3)
       ~draw:(fun rng -> Dist.geometric rng ~p:0.3))

let test_binomial_shape () =
  check_fit "binomial(20, 0.35)"
    (fit ~seed:2 ~samples:50_000 ~cells:15
       ~pmf:(binomial_pmf ~n:20 ~p:0.35)
       ~draw:(fun rng -> Dist.binomial rng ~n:20 ~p:0.35))

let test_binomial_complement_shape () =
  (* p > 1/2 exercises the complement branch. *)
  check_fit "binomial(12, 0.8)"
    (fit ~seed:3 ~samples:50_000 ~cells:13
       ~pmf:(binomial_pmf ~n:12 ~p:0.8)
       ~draw:(fun rng -> Dist.binomial rng ~n:12 ~p:0.8))

let test_poisson_shape () =
  check_fit "poisson(3.7)"
    (fit ~seed:4 ~samples:50_000 ~cells:13
       ~pmf:(poisson_pmf ~lambda:3.7)
       ~draw:(fun rng -> Dist.poisson rng ~lambda:3.7))

let test_poisson_split_shape () =
  (* lambda > 30 goes through the recursive split. *)
  let lambda = 40. in
  let shift = 20 in
  check_fit "poisson(40) shifted window"
    (fit ~seed:5 ~samples:50_000 ~cells:41
       ~pmf:(fun i -> poisson_pmf ~lambda (i + shift))
       ~draw:(fun rng -> max 0 (Dist.poisson rng ~lambda - shift)))

let test_zipf_shape () =
  let n = 12 and s = 1.3 in
  let z = ref 0. in
  for k = 1 to n do
    z := !z +. (float_of_int k ** -.s)
  done;
  check_fit "zipf(12, 1.3)"
    (fit ~seed:6 ~samples:50_000 ~cells:n
       ~pmf:(fun i ->
         if i < n then (float_of_int (i + 1) ** -.s) /. !z else 0.)
       ~draw:(fun rng -> Dist.zipf rng ~n ~s))

let test_zipf_s1_shape () =
  let n = 10 in
  let h = ref 0. in
  for k = 1 to n do
    h := !h +. (1. /. float_of_int k)
  done;
  check_fit "zipf(10, 1)"
    (fit ~seed:7 ~samples:50_000 ~cells:n
       ~pmf:(fun i -> if i < n then 1. /. (float_of_int (i + 1) *. !h) else 0.)
       ~draw:(fun rng -> Dist.zipf rng ~n ~s:1.))

let test_exponential_shape () =
  (* Continuous: bin [0, 2.4) into 12 cells of width 0.2 plus a tail. *)
  let rate = 1.7 in
  let width = 0.2 in
  let cells = 13 in
  let rng = Rng.create 8 in
  let observed = Array.make cells 0 in
  let samples = 50_000 in
  for _ = 1 to samples do
    let x = Dist.exponential rng ~rate in
    let cell = int_of_float (x /. width) in
    let cell = if cell >= cells - 1 then cells - 1 else cell in
    observed.(cell) <- observed.(cell) + 1
  done;
  let cdf x = 1. -. exp (-.rate *. x) in
  let expected =
    Array.init cells (fun i ->
        let lo = float_of_int i *. width in
        let p =
          if i < cells - 1 then cdf (lo +. width) -. cdf lo else 1. -. cdf lo
        in
        float_of_int samples *. p)
  in
  check_fit "exponential(1.7)" (Chisq.goodness_of_fit ~observed ~expected)

let test_normal_shape () =
  (* Bin the standard normal into 10 equal-probability cells via the
     inverse CDF at precomputed points. *)
  let rng = Rng.create 9 in
  let samples = 50_000 in
  (* Deciles of N(0,1). *)
  let deciles =
    [| -1.2816; -0.8416; -0.5244; -0.2533; 0.; 0.2533; 0.5244; 0.8416; 1.2816 |]
  in
  let observed = Array.make 10 0 in
  for _ = 1 to samples do
    let x = Dist.normal rng ~mu:0. ~sigma:1. in
    let rec cell i = if i >= 9 || x < deciles.(i) then i else cell (i + 1) in
    let c = cell 0 in
    observed.(c) <- observed.(c) + 1
  done;
  let o = Chisq.uniform observed in
  Alcotest.(check bool)
    (Printf.sprintf "normal deciles uniform (p=%.4f)" o.Chisq.p_value)
    true o.Chisq.uniform_plausible

let test_rng_int_large_bound_shape () =
  (* The rejection sampler must stay unbiased for awkward bounds. *)
  let rng = Rng.create 10 in
  let bound = 769 (* prime, just above a power of two *) in
  let counts = Array.make 16 0 in
  for _ = 1 to 80_000 do
    let x = Rng.int rng bound in
    counts.(x * 16 / bound) <- counts.(x * 16 / bound) + 1
  done;
  (* The 16 buckets are not perfectly equal-sized for prime bounds; test
     against exact bucket masses. *)
  let sizes = Array.make 16 0 in
  for x = 0 to bound - 1 do
    sizes.(x * 16 / bound) <- sizes.(x * 16 / bound) + 1
  done;
  let expected =
    Array.map (fun s -> 80_000. *. float_of_int s /. float_of_int bound) sizes
  in
  let o = Chisq.goodness_of_fit ~observed:counts ~expected in
  Alcotest.(check bool)
    (Printf.sprintf "bounded ints unbiased (p=%.4f)" o.Chisq.p_value)
    true
    (o.Chisq.p_value >= 0.01)

let () =
  Alcotest.run "dist-shape"
    [
      ( "goodness-of-fit",
        [
          Alcotest.test_case "geometric" `Quick test_geometric_shape;
          Alcotest.test_case "binomial" `Quick test_binomial_shape;
          Alcotest.test_case "binomial p>1/2" `Quick test_binomial_complement_shape;
          Alcotest.test_case "poisson" `Quick test_poisson_shape;
          Alcotest.test_case "poisson split" `Quick test_poisson_split_shape;
          Alcotest.test_case "zipf" `Quick test_zipf_shape;
          Alcotest.test_case "zipf s=1" `Quick test_zipf_s1_shape;
          Alcotest.test_case "exponential" `Quick test_exponential_shape;
          Alcotest.test_case "normal" `Quick test_normal_shape;
          Alcotest.test_case "bounded ints" `Quick test_rng_int_large_bound_shape;
        ] );
    ]
