(* Bytes-backed bitset for per-node boolean flags.

   A [bool array] costs one word (8 bytes) per element; at the
   million-node scale the informed/pending flags alone would occupy
   16 MB and thrash the cache. One bit per node keeps the whole flag
   set of an n = 2^20 network in 128 KB, and an n = 10^7 one in 1.2 MB.

   The buffer is sized in whole 64-bit words so that [cardinal],
   [iter_set] and [next_set] can scan 64 nodes per load. Two invariants
   make the word-level paths correct:

   - indices are bounds-checked against [len] (not against the byte
     buffer), so the padding bits in [len .. 64*words) are unreachable
     through [get]/[set]/[clear]/[assign];
   - padding bits are always zero ([create] and [reset] clear them,
     and nothing else can touch them), so a word-level scan never
     reports a phantom member and [cardinal] never overcounts. *)

type t = { bits : Bytes.t; len : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative length";
  (* Whole 64-bit words, so every word-level load is in bounds. *)
  { bits = Bytes.make (((n + 63) lsr 6) lsl 3) '\000'; len = n }

let length t = t.len

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Bitset.%s: index %d out of bounds [0, %d)" op i t.len)

let get t i =
  check t i "get";
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  check t i "set";
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

let clear t i =
  check t i "clear";
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits j)
       land lnot (1 lsl (i land 7)) land 0xFF))

let assign t i b = if b then set t i else clear t i
let reset t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

(* --- word-level scans --- *)

let words t = Bytes.length t.bits lsr 3

(* The two 32-bit halves of word [w] as untagged native ints, so the
   per-word arithmetic below never boxes an Int64. *)
let half_lo t w = Int64.to_int (Int64.logand (Bytes.get_int64_le t.bits (w lsl 3)) 0xFFFFFFFFL)
let half_hi t w = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le t.bits (w lsl 3)) 32)

(* SWAR popcount on a 32-bit value held in a native int. *)
let pop32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (* native ints don't truncate at 32 bits, so mask the count byte *)
  ((x * 0x01010101) lsr 24) land 0xFF

(* Index of the lowest set bit of a non-zero 32-bit value. *)
let ntz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let cardinal t =
  let n = ref 0 in
  for w = 0 to words t - 1 do
    n := !n + pop32 (half_lo t w) + pop32 (half_hi t w)
  done;
  !n

let iter_set t f =
  for w = 0 to words t - 1 do
    let base = w lsl 6 in
    let lo = ref (half_lo t w) in
    while !lo <> 0 do
      f (base + ntz32 !lo);
      lo := !lo land (!lo - 1)
    done;
    let hi = ref (half_hi t w) in
    while !hi <> 0 do
      f (base + 32 + ntz32 !hi);
      hi := !hi land (!hi - 1)
    done
  done

let next_set t i =
  if i < 0 then invalid_arg "Bitset.next_set: negative index";
  if i >= t.len then -1
  else begin
    let nw = words t in
    let result = ref (-1) in
    let w = ref (i lsr 6) in
    (* First word: mask off the bits below [i]. *)
    let off = i land 63 in
    let lo = if off >= 32 then 0 else half_lo t !w land (-1 lsl off) land 0xFFFFFFFF in
    let hi =
      if off <= 32 then half_hi t !w land (-1 lsl max 0 (off - 32)) land 0xFFFFFFFF
      else half_hi t !w land (-1 lsl (off - 32)) land 0xFFFFFFFF
    in
    if lo <> 0 then result := (!w lsl 6) + ntz32 lo
    else if hi <> 0 then result := (!w lsl 6) + 32 + ntz32 hi
    else begin
      incr w;
      while !result < 0 && !w < nw do
        let lo = half_lo t !w in
        if lo <> 0 then result := (!w lsl 6) + ntz32 lo
        else begin
          let hi = half_hi t !w in
          if hi <> 0 then result := (!w lsl 6) + 32 + ntz32 hi
        end;
        if !result < 0 then incr w
      done
    end;
    (* Padding bits are always zero, so a hit is always < len. *)
    !result
  end

let copy t = { bits = Bytes.copy t.bits; len = t.len }

let blit ~src ~dst =
  if src.len <> dst.len then
    invalid_arg
      (Printf.sprintf "Bitset.blit: length mismatch (%d vs %d)" src.len
         dst.len);
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)
