include Rumor_rng.Splitmix64

let next_in t bound =
  if bound <= 0 then invalid_arg "Splitmix64.next_in: bound <= 0";
  (* Use the top bits via multiply-shift on the positive 62-bit part;
     bias is negligible for bounds far below 2^62. *)
  let x = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  x mod bound

let next_float t =
  let x = Int64.shift_right_logical (next t) 11 in
  Int64.to_float x *. 0x1.0p-53
