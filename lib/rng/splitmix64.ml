type t = { mutable state : int64 }

let create seed = { state = seed }
let copy t = { state = t.state }

(* Constants from the reference implementation of SplitMix64. *)
let golden = 0x9E3779B97F4A7C15L
let mix1 = 0xBF58476D1CE4E5B9L
let mix2 = 0x94D049BB133111EBL

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) mix1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) mix2 in
  Int64.logxor z (Int64.shift_right_logical z 31)
