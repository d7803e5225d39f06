(* Xoshiro256** on unboxed int64 words.

   The four state words live in a 32-byte [Bytes.t] and are read and
   written with the raw 64-bit load/store primitives. ocamlopt keeps an
   [int64] unboxed as long as it stays inside one function, so each
   accessor below inlines the whole step (loads, scramble, update,
   stores) and converts to a tagged [int] before returning: drawing
   allocates nothing. Only [next] returns a boxed [int64]. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One generator step: store the advanced state and return the
   scrambled output of the old one. Always inlined, so the output stays
   unboxed in the caller. *)
let[@inline] step t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let out = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  out

let bits62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)
let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)
let next t = step t

(* The smallest all-ones mask covering [bound - 1] (at least 1), by
   smearing its top bit down. *)
let[@inline] mask_of bound =
  let m = if bound > 1 then bound - 1 else 1 in
  let m = m lor (m lsr 1) in
  let m = m lor (m lsr 2) in
  let m = m lor (m lsr 4) in
  let m = m lor (m lsr 8) in
  let m = m lor (m lsr 16) in
  m lor (m lsr 32)

(* Unbiased bounded integers: [bits62] under the mask, rejected while
   at least [bound]. A plain loop over a local ref (kept in a register)
   rather than a local recursive function, so a draw allocates
   nothing. *)
let below t bound =
  let mask = mask_of bound in
  let x = ref (bits62 t land mask) in
  while !x >= bound do
    x := bits62 t land mask
  done;
  !x

(* [k] draws of [below] with duplicate rejection, as one loop: the
   state sits in local refs (registers) and is written back once. The
   duplicate test scans the values already accepted, at most [k - 1]
   compares (three in the paper's four-of-d choice). *)
let distinct_into t ~bound ~k out =
  let mask = mask_of bound in
  let s0 = ref (get t 0) and s1 = ref (get t 8) in
  let s2 = ref (get t 16) and s3 = ref (get t 24) in
  let i = ref 0 in
  while !i < k do
    let a0 = !s0 and a1 = !s1 in
    let x =
      Int64.to_int
        (Int64.shift_right_logical (Int64.mul (rotl (Int64.mul a1 5L) 7) 9L) 2)
      land mask
    in
    let a2 = Int64.logxor !s2 a0 in
    let a3 = Int64.logxor !s3 a1 in
    s0 := Int64.logxor a0 a3;
    s1 := Int64.logxor a1 a2;
    s2 := Int64.logxor a2 (Int64.shift_left a1 17);
    s3 := rotl a3 45;
    if x < bound then begin
      let j = ref 0 in
      while !j < !i && out.(!j) <> x do
        incr j
      done;
      if !j = !i then begin
        out.(!i) <- x;
        incr i
      end
    end
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3

let make s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

let create seed =
  let sm = Splitmix64.create seed in
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* SplitMix64 output is never all-zero across four draws in practice,
     but guard anyway: an all-zero xoshiro state is a fixed point. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    make 1L s1 s2 s3
  else make s0 s1 s2 s3

let of_state s0 s1 s2 s3 =
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make s0 s1 s2 s3

let copy = Bytes.copy

(* Jump polynomial for 2^128 steps, from the reference implementation. *)
let jump_tbl = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
                  0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  for i = 0 to 3 do
    for b = 0 to 63 do
      if Int64.logand jump_tbl.(i) (Int64.shift_left 1L b) <> 0L then begin
        s0 := Int64.logxor !s0 (get t 0);
        s1 := Int64.logxor !s1 (get t 8);
        s2 := Int64.logxor !s2 (get t 16);
        s3 := Int64.logxor !s3 (get t 24)
      end;
      ignore (step t)
    done
  done;
  set t 0 !s0;
  set t 8 !s1;
  set t 16 !s2;
  set t 24 !s3
