(* Welch's two-sample t-test. *)

type outcome = {
  t_stat : float;
  dof : float;
  p_value : float;
  significant : bool;
}

let normal_cdf = Special.normal_cdf

let t_two_sided_p ~t ~dof =
  let x = dof /. (dof +. (t *. t)) in
  Special.incomplete_beta (dof /. 2.) 0.5 x

let welch (a : Summary.t) (b : Summary.t) =
  if a.Summary.count < 2 || b.Summary.count < 2 then
    invalid_arg "Ttest.welch: need >= 2 points per sample";
  let va = a.Summary.stddev ** 2. /. float_of_int a.Summary.count in
  let vb = b.Summary.stddev ** 2. /. float_of_int b.Summary.count in
  if va +. vb = 0. then begin
    if a.Summary.mean = b.Summary.mean then
      { t_stat = 0.; dof = infinity; p_value = 1.; significant = false }
    else invalid_arg "Ttest.welch: zero variance with distinct means"
  end
  else begin
    let t = (a.Summary.mean -. b.Summary.mean) /. sqrt (va +. vb) in
    let dof =
      ((va +. vb) ** 2.)
      /. ((va ** 2. /. float_of_int (a.Summary.count - 1))
         +. (vb ** 2. /. float_of_int (b.Summary.count - 1)))
    in
    let p =
      if dof >= 30. then 2. *. (1. -. Special.normal_cdf (abs_float t))
      else t_two_sided_p ~t ~dof
    in
    let p = Float.min 1. (Float.max 0. p) in
    { t_stat = t; dof; p_value = p; significant = p < 0.05 }
  end
