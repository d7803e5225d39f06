(* Chi-square goodness-of-fit tests: the oracle for the distribution-shape
   tests of Rng and Dist. *)

type outcome = {
  statistic : float;
  dof : int;
  p_value : float;
  uniform_plausible : bool;
}

let goodness_of_fit ~observed ~expected =
  let cells = Array.length observed in
  if cells < 2 then invalid_arg "Chisq.goodness_of_fit: need >= 2 cells";
  if Array.length expected <> cells then
    invalid_arg "Chisq.goodness_of_fit: length mismatch";
  Array.iter
    (fun e -> if e <= 0. then invalid_arg "Chisq.goodness_of_fit: expected <= 0")
    expected;
  let statistic = ref 0. in
  for i = 0 to cells - 1 do
    let diff = float_of_int observed.(i) -. expected.(i) in
    statistic := !statistic +. (diff *. diff /. expected.(i))
  done;
  let dof = cells - 1 in
  let p_value =
    Special.regularized_gamma_q (float_of_int dof /. 2.) (!statistic /. 2.)
  in
  { statistic = !statistic; dof; p_value; uniform_plausible = p_value >= 0.01 }

let uniform counts =
  let cells = Array.length counts in
  if cells < 2 then invalid_arg "Chisq.uniform: need >= 2 cells";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then invalid_arg "Chisq.uniform: zero total";
  let expected =
    Array.make cells (float_of_int total /. float_of_int cells)
  in
  goodness_of_fit ~observed:counts ~expected
