(* Bytes-backed fixed-width unsigned cells for per-node counters.

   The kernel's per-rumor tables used to keep one machine word (8
   bytes) per node for every small counter, such as the
   duplicate-delivery tallies that rarely exceed a few dozen. At n = 10^8 each such array is 800 MB; the values fit in one
   or two bytes. A [Cells.t] stores them at their natural width over a
   flat [Bytes.t], the same shape as {!Bitset} one level up.

   Two policies mirror Bitset's:

   - every access is bounds-checked against [len] (the buffer is padded
     to a whole number of 64-bit words so [fill] can write word-at-a-
     time, and the padding is unreachable through [get]/[set]);
   - [set] range-checks the value against the declared width and raises
     [Invalid_argument] instead of silently truncating — a stored round
     that exceeds the width is a configuration error the caller must
     see, not a wrap-around the simulation absorbs. *)

type width = W8 | W16 | W32

type t = {
  bytes : Bytes.t;
  len : int;
  width : width;
  shift : int;  (* log2 of the cell size in bytes: 0, 1 or 2 *)
  max_value : int;
}

let bits_of_width = function W8 -> 8 | W16 -> 16 | W32 -> 32

let width_of_bits = function
  | 8 -> W8
  | 16 -> W16
  | 32 -> W32
  | b -> invalid_arg (Printf.sprintf "Cells.width_of_bits: %d not 8/16/32" b)

let width_for v =
  if v < 0 then invalid_arg "Cells.width_for: negative value";
  if v <= 0xFF then W8
  else if v <= 0xFFFF then W16
  else if v <= 0xFFFFFFFF then W32
  else invalid_arg (Printf.sprintf "Cells.width_for: %d exceeds 32 bits" v)

let shift_of_width = function W8 -> 0 | W16 -> 1 | W32 -> 2
let max_of_width = function W8 -> 0xFF | W16 -> 0xFFFF | W32 -> 0xFFFFFFFF

let create width n =
  if n < 0 then invalid_arg "Cells.create: negative length";
  let shift = shift_of_width width in
  (* Pad to whole 64-bit words so [fill] can write 8 bytes per store. *)
  let bytes = Bytes.make (((n lsl shift) + 7) land lnot 7) '\000' in
  { bytes; len = n; width; shift; max_value = max_of_width width }

let max_value t = t.max_value

let check t i op =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Cells.%s: index %d out of bounds [0, %d)" op i t.len)

let check_value t v op =
  if v < 0 || v > t.max_value then
    invalid_arg
      (Printf.sprintf "Cells.%s: value %d out of range [0, %d] for %d-bit cells"
         op v t.max_value (bits_of_width t.width))

(* 32-bit cells are read/written as two 16-bit halves: [get_uint16_le]
   returns an untagged int, while [get_int32_le] would box an Int32 per
   load — unacceptable on the kernel's hot path. *)

let get t i =
  check t i "get";
  match t.width with
  | W8 -> Bytes.get_uint8 t.bytes i
  | W16 -> Bytes.get_uint16_le t.bytes (i lsl 1)
  | W32 ->
      let off = i lsl 2 in
      Bytes.get_uint16_le t.bytes off
      lor (Bytes.get_uint16_le t.bytes (off + 2) lsl 16)

let set t i v =
  check t i "set";
  check_value t v "set";
  match t.width with
  | W8 -> Bytes.set_uint8 t.bytes i v
  | W16 -> Bytes.set_uint16_le t.bytes (i lsl 1) v
  | W32 ->
      let off = i lsl 2 in
      Bytes.set_uint16_le t.bytes off (v land 0xFFFF);
      Bytes.set_uint16_le t.bytes (off + 2) (v lsr 16)

(* The cell value replicated across a 64-bit word, as the raw bytes the
   word-parallel fill stores. *)
let pattern64 t v =
  let p =
    match t.width with
    | W8 -> v lor (v lsl 8) lor (v lsl 16) lor (v lsl 24)
    | W16 -> v lor (v lsl 16)
    | W32 -> v
  in
  (* [p] fills 32 bits; widen to 64 without boxing concerns (one-off). *)
  Int64.logor
    (Int64.of_int (p land 0xFFFFFFFF))
    (Int64.shift_left (Int64.of_int (p land 0xFFFFFFFF)) 32)

let fill t v =
  check_value t v "fill";
  let lo = v land 0xFF in
  let bytes_equal =
    match t.width with
    | W8 -> true
    | W16 -> (v lsr 8) land 0xFF = lo
    | W32 ->
        (v lsr 8) land 0xFF = lo
        && (v lsr 16) land 0xFF = lo
        && (v lsr 24) land 0xFF = lo
  in
  if bytes_equal then Bytes.fill t.bytes 0 (Bytes.length t.bytes) (Char.chr lo)
  else begin
    let p = pattern64 t v in
    for w = 0 to (Bytes.length t.bytes lsr 3) - 1 do
      Bytes.set_int64_le t.bytes (w lsl 3) p
    done
  end
