(* Tests for the rumor_rng library: generators, bounded draws, sampling
   primitives and distributions. *)

module Splitmix64 = Rumor_test_support.Splitmix64
module Xoshiro = Rumor_rng.Xoshiro
module Rng = Rumor_test_support.Rng
module Dist = Rumor_test_support.Dist

let check_float = Alcotest.(check (float 1e-9))

(* --- Splitmix64 --- *)

let test_splitmix_deterministic () =
  let a = Splitmix64.create 42L and b = Splitmix64.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix64.next a) (Splitmix64.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix64.create 1L and b = Splitmix64.create 2L in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix64.next a <> Splitmix64.next b)

let test_splitmix_copy () =
  let a = Splitmix64.create 7L in
  ignore (Splitmix64.next a);
  let b = Splitmix64.copy a in
  Alcotest.(check int64) "copy continues identically" (Splitmix64.next a)
    (Splitmix64.next b)

let test_splitmix_next_in_bounds () =
  let t = Splitmix64.create 3L in
  for _ = 1 to 1000 do
    let x = Splitmix64.next_in t 17 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 17)
  done

let test_splitmix_next_in_invalid () =
  let t = Splitmix64.create 3L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix64.next_in: bound <= 0")
    (fun () -> ignore (Splitmix64.next_in t 0))

let test_splitmix_float_range () =
  let t = Splitmix64.create 5L in
  for _ = 1 to 1000 do
    let x = Splitmix64.next_float t in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

(* --- Xoshiro --- *)

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 42L and b = Xoshiro.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_of_state_zero () =
  Alcotest.check_raises "all-zero rejected"
    (Invalid_argument "Xoshiro.of_state: all-zero state") (fun () ->
      ignore (Xoshiro.of_state 0L 0L 0L 0L))

let test_xoshiro_jump_disjoint () =
  (* After a jump the stream must differ from the unjumped stream. *)
  let a = Xoshiro.create 9L in
  let b = Xoshiro.copy a in
  Xoshiro.jump b;
  let differs = ref false in
  for _ = 1 to 32 do
    if Xoshiro.next a <> Xoshiro.next b then differs := true
  done;
  Alcotest.(check bool) "jumped stream differs" true !differs

let test_xoshiro_copy_independent () =
  let a = Xoshiro.create 11L in
  let b = Xoshiro.copy a in
  ignore (Xoshiro.next a);
  ignore (Xoshiro.next a);
  (* b still produces the original next value *)
  let c = Xoshiro.create 11L in
  Alcotest.(check int64) "copy kept old state" (Xoshiro.next c) (Xoshiro.next b)

(* Textbook xoshiro256** on boxed [Int64] words, straight from the
   reference C code: the oracle for the unboxed implementation. *)
module Ref_xoshiro = struct
  type t = int64 array

  let rotl x k =
    Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

  let next s =
    let result = Int64.mul (rotl (Int64.mul s.(1) 5L) 7) 9L in
    let t = Int64.shift_left s.(1) 17 in
    s.(2) <- Int64.logxor s.(2) s.(0);
    s.(3) <- Int64.logxor s.(3) s.(1);
    s.(1) <- Int64.logxor s.(1) s.(2);
    s.(0) <- Int64.logxor s.(0) s.(3);
    s.(2) <- Int64.logxor s.(2) t;
    s.(3) <- rotl s.(3) 45;
    result

  let jump s =
    let tbl =
      [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL;
         0x39ABDC4529B1661CL |]
    in
    let acc = Array.make 4 0L in
    Array.iter
      (fun word ->
        for b = 0 to 63 do
          if Int64.logand word (Int64.shift_left 1L b) <> 0L then
            for i = 0 to 3 do
              acc.(i) <- Int64.logxor acc.(i) s.(i)
            done;
          ignore (next s)
        done)
      tbl;
    Array.blit acc 0 s 0 4
end

let test_xoshiro_reference_vectors () =
  let t = Xoshiro.of_state 1L 2L 3L 4L in
  List.iter
    (fun want -> Alcotest.(check int64) "next" want (Xoshiro.next t))
    [ 11520L; 0L; 1509978240L; 1215971899390074240L ]

(* Every accessor against the textbook generator, 10^5 outputs per
   state, from explicit states, a seeded one, a copy and a jumped one. *)
let test_xoshiro_matches_textbook () =
  let against name (t : Xoshiro.t) (s : Ref_xoshiro.t) =
    for i = 1 to 100_000 do
      let want = Ref_xoshiro.next s in
      let fail what got =
        Alcotest.failf "%s: output %d: %s gave %Ld, textbook %Ld" name i what
          got want
      in
      match i mod 3 with
      | 0 ->
          let got = Xoshiro.next t in
          if got <> want then fail "next" got
      | 1 ->
          let got = Xoshiro.bits62 t in
          if got <> Int64.to_int (Int64.shift_right_logical want 2) then
            fail "bits62" (Int64.of_int got)
      | _ ->
          let got = Xoshiro.bits53 t in
          if got <> Int64.to_int (Int64.shift_right_logical want 11) then
            fail "bits53" (Int64.of_int got)
    done
  in
  let states =
    [
      (1L, 2L, 3L, 4L);
      (-1L, -1L, -1L, -1L);
      (0L, 0L, 0L, Int64.min_int);
      (0x0123456789ABCDEFL, 0xFEDCBA9876543210L, 0x5555555555555555L,
       0xAAAAAAAAAAAAAAAAL);
    ]
  in
  List.iter
    (fun (a, b, c, d) ->
      let name = Printf.sprintf "state %Lx" a in
      let t = Xoshiro.of_state a b c d and s = [| a; b; c; d |] in
      against name t s;
      let t' = Xoshiro.copy t and s' = Array.copy s in
      against (name ^ " copy") t' s';
      Xoshiro.jump t;
      Ref_xoshiro.jump s;
      against (name ^ " jumped") t s;
      (* The copy is untouched by the original's jump. *)
      against (name ^ " copy after jump") t' s')
    states;
  (* A seeded state is four SplitMix64 outputs. *)
  let sm = Splitmix64.create 2024L in
  let s = Array.init 4 (fun _ -> Splitmix64.next sm) in
  against "seed 2024" (Xoshiro.create 2024L) s

(* --- Rng --- *)

let test_rng_int_bounds () =
  let t = Rng.create 1 in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let x = Rng.int t bound in
      Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
    done
  done

let test_rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int t 0))

let test_rng_int_uniform () =
  (* Rough uniformity: 8 cells, 80k draws; each cell within 5% of 10k. *)
  let t = Rng.create 123 in
  let cells = Array.make 8 0 in
  for _ = 1 to 80_000 do
    let x = Rng.int t 8 in
    cells.(x) <- cells.(x) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "cell count %d near 10000" c)
        true
        (c > 9_500 && c < 10_500))
    cells

let test_rng_int_in () =
  let t = Rng.create 2 in
  for _ = 1 to 1000 do
    let x = Rng.int_in t (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in t 3 3);
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in: hi < lo")
    (fun () -> ignore (Rng.int_in t 2 1))

let test_rng_float_range () =
  let t = Rng.create 3 in
  for _ = 1 to 10_000 do
    let x = Rng.float t in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_float_mean () =
  let t = Rng.create 4 in
  let total = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    total := !total +. Rng.float t
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_bool_fair () =
  let t = Rng.create 5 in
  let heads = ref 0 in
  for _ = 1 to 50_000 do
    if Rng.bool t then incr heads
  done;
  Alcotest.(check bool) "roughly fair" true (!heads > 24_000 && !heads < 26_000)

let test_rng_bernoulli_extremes () =
  let t = Rng.create 6 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.bernoulli t 0.);
    Alcotest.(check bool) "p=1 always" true (Rng.bernoulli t 1.);
    Alcotest.(check bool) "p<0 clamps" false (Rng.bernoulli t (-0.5));
    Alcotest.(check bool) "p>1 clamps" true (Rng.bernoulli t 1.5)
  done

let test_rng_bernoulli_freq () =
  let t = Rng.create 7 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let f = float_of_int !hits /. 50_000. in
  Alcotest.(check bool) "frequency near 0.3" true (abs_float (f -. 0.3) < 0.02)

let test_rng_pick () =
  let t = Rng.create 8 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let x = Rng.pick t a in
    Alcotest.(check bool) "element of array" true (x = 10 || x = 20 || x = 30)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick t [||]))

let test_rng_distinct_validity () =
  let t = Rng.create 9 in
  for _ = 1 to 500 do
    let k = 1 + Rng.int t 6 and bound = 8 + Rng.int t 20 in
    let a = Rng.distinct t ~bound ~k in
    Alcotest.(check int) "length" k (Array.length a);
    Array.iter
      (fun x -> Alcotest.(check bool) "range" true (x >= 0 && x < bound))
      a;
    let sorted = Array.copy a in
    Array.sort compare sorted;
    for i = 1 to k - 1 do
      Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
    done
  done

(* [distinct_into] against its definition on a copied stream: k
   [Rng.int] draws with duplicate rejection when 2k <= bound, a partial
   Fisher-Yates over the identity otherwise. Every bound 1..64 and every
   k, so the rejection loop at every mask width up to 2^6 and the dense
   branch meet the same oracle, value for value and with the stream
   left at the same place. *)
let test_rng_distinct_into_definition () =
  let t = Rng.create 77 in
  let out = Array.make 64 (-1) in
  for bound = 1 to 64 do
    for k = 0 to bound do
      for _ = 1 to 4 do
        let r = Rng.copy t in
        let want =
          if 2 * k <= bound then begin
            let acc = ref [] in
            while List.length !acc < k do
              let x = Rng.int r bound in
              if not (List.mem x !acc) then acc := x :: !acc
            done;
            Array.of_list (List.rev !acc)
          end
          else begin
            let a = Array.init bound (fun i -> i) in
            Rng.shuffle_prefix r a k;
            Array.sub a 0 k
          end
        in
        let got = Rng.distinct_into t ~bound ~k out in
        let what = Printf.sprintf "bound %d, k %d" bound k in
        Alcotest.(check int) (what ^ ": count") k got;
        Alcotest.(check (array int)) (what ^ ": values") want
          (Array.sub out 0 k);
        Alcotest.(check int64) (what ^ ": stream position") (Rng.bits64 r)
          (Rng.bits64 t)
      done
    done
  done

(* Drawing allocates nothing: a helper that returns an [int64] across a
   call that is not inlined boxes every draw. [Rng.float] returns a
   float, which a call boundary boxes (two words); its draw itself is
   pinned through [bernoulli], which shares it. *)
let test_draws_allocate_nothing () =
  let calls = 10_000 in
  let t = Rng.create 5 and x = Xoshiro.create 5L in
  let out = Array.make 4 0 in
  let sink = ref 0 in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let pin name ?(per_call = 0) f =
    let w = words f in
    if w > float_of_int ((per_call * calls) + 64) then
      Alcotest.failf "%s: %.0f minor words over %d calls" name w calls
  in
  pin "Rng.int" (fun () -> sink := !sink + Rng.int t 37);
  pin "Rng.int (bound 2^40)" (fun () -> sink := !sink + Rng.int t (1 lsl 40));
  pin "Rng.float" ~per_call:2 (fun () -> ignore (Rng.float t));
  pin "Rng.bernoulli" (fun () -> if Rng.bernoulli t 0.3 then incr sink);
  pin "Rng.distinct_into (4 of 8)" (fun () ->
      sink := !sink + Rng.distinct_into t ~bound:8 ~k:4 out);
  pin "Rng.distinct_into (4 of 100)" (fun () ->
      sink := !sink + Rng.distinct_into t ~bound:100 ~k:4 out);
  pin "Xoshiro.bits62" (fun () -> sink := !sink + Xoshiro.bits62 x);
  pin "Xoshiro.bits53" (fun () -> sink := !sink + Xoshiro.bits53 x);
  ignore (Sys.opaque_identity !sink)

let test_rng_distinct_full () =
  let t = Rng.create 10 in
  let a = Rng.distinct t ~bound:12 ~k:12 in
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k = bound is a permutation"
    (Array.init 12 (fun i -> i))
    sorted

let test_rng_distinct_invalid () =
  let t = Rng.create 11 in
  Alcotest.check_raises "k > bound"
    (Invalid_argument "Rng.distinct_into: k out of range") (fun () ->
      ignore (Rng.distinct t ~bound:3 ~k:4))

let test_rng_distinct_into_out_too_short () =
  let t = Rng.create 11 in
  Alcotest.check_raises "out too short"
    (Invalid_argument "Rng.distinct_into: out too short") (fun () ->
      ignore (Rng.distinct_into t ~bound:8 ~k:4 (Array.make 2 0)))

let test_rng_fork_nonadvancing () =
  let a = Rng.create 13 in
  let b = Rng.create 13 in
  ignore (Rng.fork a 0);
  ignore (Rng.fork a 1);
  Alcotest.(check int64) "fork does not advance parent" (Rng.bits64 b)
    (Rng.bits64 a)

let test_rng_fork_independent () =
  let a = Rng.create 14 in
  let s0 = Rng.fork a 0 and s1 = Rng.fork a 1 in
  Alcotest.(check bool) "forks differ" true (Rng.bits64 s0 <> Rng.bits64 s1)

let test_rng_fork_reproducible () =
  let a = Rng.create 15 and b = Rng.create 15 in
  let fa = Rng.fork a 3 and fb = Rng.fork b 3 in
  for _ = 1 to 20 do
    Alcotest.(check int64) "same fork same stream" (Rng.bits64 fa) (Rng.bits64 fb)
  done

let test_rng_split_advances () =
  let a = Rng.create 16 and b = Rng.create 16 in
  let _child = Rng.split a in
  Alcotest.(check bool) "split advances parent" true
    (Rng.bits64 a <> Rng.bits64 b)

(* --- Distributions --- *)

let test_dist_uniform () =
  let t = Rng.create 20 in
  for _ = 1 to 1000 do
    let x = Dist.uniform t ~lo:(-2.) ~hi:3. in
    Alcotest.(check bool) "in range" true (x >= -2. && x < 3.)
  done;
  Alcotest.check_raises "hi < lo" (Invalid_argument "Dist.uniform: hi < lo")
    (fun () -> ignore (Dist.uniform t ~lo:1. ~hi:0.))

let test_dist_exponential_mean () =
  let t = Rng.create 21 in
  let total = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Dist.exponential t ~rate:2. in
    Alcotest.(check bool) "nonnegative" true (x >= 0.);
    total := !total +. x
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_dist_exponential_invalid () =
  let t = Rng.create 21 in
  Alcotest.check_raises "rate 0" (Invalid_argument "Dist.exponential: rate <= 0")
    (fun () -> ignore (Dist.exponential t ~rate:0.))

let test_dist_geometric_mean () =
  let t = Rng.create 22 in
  let total = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Dist.geometric t ~p:0.25 in
    Alcotest.(check bool) "nonnegative" true (x >= 0);
    total := !total + x
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* E = (1-p)/p = 3 *)
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.) < 0.1)

let test_dist_geometric_p1 () =
  let t = Rng.create 22 in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 is 0" 0 (Dist.geometric t ~p:1.)
  done

let test_dist_normal_moments () =
  let t = Rng.create 23 in
  let n = 100_000 in
  let total = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Dist.normal t ~mu:5. ~sigma:2. in
    total := !total +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !total /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 5" true (abs_float (mean -. 5.) < 0.05);
  Alcotest.(check bool) "variance near 4" true (abs_float (var -. 4.) < 0.15)

let test_dist_normal_sigma_zero () =
  let t = Rng.create 23 in
  check_float "sigma 0 is mu" 7. (Dist.normal t ~mu:7. ~sigma:0.)

let test_dist_binomial_bounds () =
  let t = Rng.create 24 in
  for _ = 1 to 2000 do
    let x = Dist.binomial t ~n:30 ~p:0.4 in
    Alcotest.(check bool) "in [0, n]" true (x >= 0 && x <= 30)
  done

let test_dist_binomial_mean () =
  let t = Rng.create 25 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Dist.binomial t ~n:50 ~p:0.3
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 15" true (abs_float (mean -. 15.) < 0.15)

let test_dist_binomial_edges () =
  let t = Rng.create 26 in
  Alcotest.(check int) "p=0" 0 (Dist.binomial t ~n:10 ~p:0.);
  Alcotest.(check int) "p=1" 10 (Dist.binomial t ~n:10 ~p:1.);
  Alcotest.(check int) "n=0" 0 (Dist.binomial t ~n:0 ~p:0.5)

let test_dist_binomial_high_p () =
  (* p > 1/2 goes through the complement branch. *)
  let t = Rng.create 27 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Dist.binomial t ~n:40 ~p:0.9
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 36" true (abs_float (mean -. 36.) < 0.2)

let test_dist_poisson_mean () =
  let t = Rng.create 28 in
  let total = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    total := !total + Dist.poisson t ~lambda:4.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 4.5" true (abs_float (mean -. 4.5) < 0.1)

let test_dist_poisson_large_lambda () =
  (* Exercises the recursive split. *)
  let t = Rng.create 29 in
  let total = ref 0 in
  let n = 5_000 in
  for _ = 1 to n do
    total := !total + Dist.poisson t ~lambda:100.
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 100" true (abs_float (mean -. 100.) < 1.5)

let test_dist_poisson_zero () =
  let t = Rng.create 29 in
  Alcotest.(check int) "lambda 0" 0 (Dist.poisson t ~lambda:0.)

let test_dist_zipf_range () =
  let t = Rng.create 30 in
  List.iter
    (fun s ->
      for _ = 1 to 2_000 do
        let x = Dist.zipf t ~n:50 ~s in
        Alcotest.(check bool) "rank in range" true (x >= 0 && x < 50)
      done)
    [ 0.; 0.8; 1.; 1.5 ]

let test_dist_zipf_skew () =
  let t = Rng.create 31 in
  let counts = Array.make 20 0 in
  for _ = 1 to 40_000 do
    let x = Dist.zipf t ~n:20 ~s:1. in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "rank 0 dominates rank 10" true
    (counts.(0) > 3 * counts.(10))

let test_dist_zipf_uniform_when_s0 () =
  let t = Rng.create 32 in
  let counts = Array.make 10 0 in
  for _ = 1 to 50_000 do
    let x = Dist.zipf t ~n:10 ~s:0. in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 4_300 && c < 5_700))
    counts

(* --- qcheck properties --- *)

let prop_shuffle_is_permutation =
  QCheck.Test.make ~count:200 ~name:"shuffle is a permutation"
    QCheck.(pair small_int (array_of_size Gen.(int_range 0 50) int))
    (fun (seed, a) ->
      let t = Rng.create seed in
      let b = Array.copy a in
      Rng.shuffle t b;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let prop_shuffle_prefix_subset =
  QCheck.Test.make ~count:200 ~name:"shuffle_prefix keeps the multiset"
    QCheck.(pair small_int (array_of_size Gen.(int_range 1 50) int))
    (fun (seed, a) ->
      let t = Rng.create seed in
      let k = Array.length a / 2 in
      let b = Array.copy a in
      Rng.shuffle_prefix t b k;
      let sa = Array.copy a and sb = Array.copy b in
      Array.sort compare sa;
      Array.sort compare sb;
      sa = sb)

let prop_permutation_valid =
  QCheck.Test.make ~count:200 ~name:"permutation covers 0..n-1"
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, n) ->
      let t = Rng.create seed in
      let p = Rng.permutation t n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_distinct_distinct =
  QCheck.Test.make ~count:300 ~name:"distinct yields distinct in-range values"
    QCheck.(triple small_int (int_range 1 64) (int_range 0 64))
    (fun (seed, bound, kraw) ->
      let k = min kraw bound in
      let t = Rng.create seed in
      let a = Rng.distinct t ~bound ~k in
      let module S = Set.Make (Int) in
      let s = S.of_list (Array.to_list a) in
      S.cardinal s = k && S.for_all (fun x -> x >= 0 && x < bound) s)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_shuffle_is_permutation;
      prop_shuffle_prefix_subset;
      prop_permutation_valid;
      prop_distinct_distinct;
    ]

let () =
  Alcotest.run "rumor_rng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_splitmix_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_splitmix_copy;
          Alcotest.test_case "next_in bounds" `Quick test_splitmix_next_in_bounds;
          Alcotest.test_case "next_in invalid" `Quick test_splitmix_next_in_invalid;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "of_state zero" `Quick test_xoshiro_of_state_zero;
          Alcotest.test_case "jump disjoint" `Quick test_xoshiro_jump_disjoint;
          Alcotest.test_case "copy independent" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "reference vectors" `Quick
            test_xoshiro_reference_vectors;
          Alcotest.test_case "matches textbook" `Quick
            test_xoshiro_matches_textbook;
        ] );
      ( "rng",
        [
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool fair" `Quick test_rng_bool_fair;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli freq" `Quick test_rng_bernoulli_freq;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          Alcotest.test_case "distinct validity" `Quick test_rng_distinct_validity;
          Alcotest.test_case "distinct full range" `Quick test_rng_distinct_full;
          Alcotest.test_case "distinct invalid" `Quick test_rng_distinct_invalid;
          Alcotest.test_case "distinct_into short out" `Quick
            test_rng_distinct_into_out_too_short;
          Alcotest.test_case "fork non-advancing" `Quick test_rng_fork_nonadvancing;
          Alcotest.test_case "fork independent" `Quick test_rng_fork_independent;
          Alcotest.test_case "fork reproducible" `Quick test_rng_fork_reproducible;
          Alcotest.test_case "split advances" `Quick test_rng_split_advances;
          Alcotest.test_case "distinct_into definition" `Quick
            test_rng_distinct_into_definition;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_draws_allocate_nothing;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform" `Quick test_dist_uniform;
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "exponential invalid" `Quick test_dist_exponential_invalid;
          Alcotest.test_case "geometric mean" `Quick test_dist_geometric_mean;
          Alcotest.test_case "geometric p=1" `Quick test_dist_geometric_p1;
          Alcotest.test_case "normal moments" `Quick test_dist_normal_moments;
          Alcotest.test_case "normal sigma 0" `Quick test_dist_normal_sigma_zero;
          Alcotest.test_case "binomial bounds" `Quick test_dist_binomial_bounds;
          Alcotest.test_case "binomial mean" `Quick test_dist_binomial_mean;
          Alcotest.test_case "binomial edges" `Quick test_dist_binomial_edges;
          Alcotest.test_case "binomial high p" `Quick test_dist_binomial_high_p;
          Alcotest.test_case "poisson mean" `Quick test_dist_poisson_mean;
          Alcotest.test_case "poisson large" `Quick test_dist_poisson_large_lambda;
          Alcotest.test_case "poisson zero" `Quick test_dist_poisson_zero;
          Alcotest.test_case "zipf range" `Quick test_dist_zipf_range;
          Alcotest.test_case "zipf skew" `Quick test_dist_zipf_skew;
          Alcotest.test_case "zipf s=0 uniform" `Quick test_dist_zipf_uniform_when_s0;
        ] );
      ("properties", qcheck_cases);
    ]
