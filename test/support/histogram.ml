(* Fixed-width histograms. *)

type t = { lo : float; hi : float; cells : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if bins < 1 then invalid_arg "Histogram.create: bins < 1";
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  { lo; hi; cells = Array.make bins 0; total = 0 }

let index t x =
  let bins = Array.length t.cells in
  let raw =
    int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
  in
  if raw < 0 then 0 else if raw >= bins then bins - 1 else raw

let add t x =
  if not (Float.is_finite x) then invalid_arg "Histogram.add: non-finite sample";
  let i = index t x in
  t.cells.(i) <- t.cells.(i) + 1;
  t.total <- t.total + 1

let count t = t.total

let bin_count t i =
  if i < 0 || i >= Array.length t.cells then invalid_arg "Histogram.bin_count";
  t.cells.(i)

let bin_bounds t i =
  if i < 0 || i >= Array.length t.cells then invalid_arg "Histogram.bin_bounds";
  let bins = float_of_int (Array.length t.cells) in
  let width = (t.hi -. t.lo) /. bins in
  (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

let pp ppf t =
  let peak = Array.fold_left max 1 t.cells in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_bounds t i in
      let width = 40 * c / peak in
      Format.fprintf ppf "[%8.3g, %8.3g) %7d %s@." lo hi c (String.make width '#'))
    t.cells
