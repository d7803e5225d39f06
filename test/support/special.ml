(* Special functions (erf, log-gamma, regularized gamma, incomplete beta)
   behind Chisq and Ttest, accurate to about 1e-7. *)

let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = abs_float x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let y =
    1.
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
       +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  sign *. y

let normal_cdf x = 0.5 *. (1. +. erf (x /. sqrt 2.))

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let g = 7. in
    let coef =
      [|
        0.99999999999980993; 676.5203681218851; -1259.1392167224028;
        771.32342877765313; -176.61502916214059; 12.507343278686905;
        -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
      |]
    in
    let x = x -. 1. in
    let a = ref coef.(0) in
    for i = 1 to 8 do
      a := !a +. (coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. g +. 0.5 in
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let betacf a b x =
  let max_iter = 200 and eps = 3e-12 and fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if abs_float !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let continue = ref true in
  while !continue && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.) < eps then continue := false;
    incr m
  done;
  !h

let incomplete_beta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else begin
    let bt =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b
        +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then bt *. betacf a b x /. a
    else 1. -. (bt *. betacf b a (1. -. x) /. b)
  end

(* Regularised incomplete gamma, Numerical-Recipes style. *)
let gamma_series a x =
  let eps = 3e-12 and max_iter = 500 in
  let ap = ref a in
  let sum = ref (1. /. a) in
  let del = ref !sum in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_iter do
    incr iter;
    ap := !ap +. 1.;
    del := !del *. x /. !ap;
    sum := !sum +. !del;
    if abs_float !del < abs_float !sum *. eps then continue := false
  done;
  !sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)

let gamma_cf a x =
  let eps = 3e-12 and fpmin = 1e-300 and max_iter = 500 in
  let b = ref (x +. 1. -. a) in
  let c = ref (1. /. fpmin) in
  let d = ref (1. /. !b) in
  let h = ref !d in
  let i = ref 1 in
  let continue = ref true in
  while !continue && !i <= max_iter do
    let an = -.float_of_int !i *. (float_of_int !i -. a) in
    b := !b +. 2.;
    d := (an *. !d) +. !b;
    if abs_float !d < fpmin then d := fpmin;
    c := !b +. (an /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.) < eps then continue := false;
    incr i
  done;
  !h *. exp ((-.x) +. (a *. log x) -. log_gamma a)

let regularized_gamma_p a x =
  if a <= 0. then invalid_arg "Special.regularized_gamma_p: a <= 0";
  if x < 0. then invalid_arg "Special.regularized_gamma_p: x < 0";
  if x = 0. then 0.
  else if x < a +. 1. then gamma_series a x
  else 1. -. gamma_cf a x

let regularized_gamma_q a x = 1. -. regularized_gamma_p a x
