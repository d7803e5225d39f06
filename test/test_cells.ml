(* Model checks for the packed cell vectors backing the kernel's
   compact per-node state.

   [Cells.t] is a Bytes-backed vector of fixed-width unsigned integers
   (8/16/32 bits) with a word-parallel [fill]. Its contract is plain: a
   [Cells.t] behaves exactly like an [int array] whose elements are
   clamped to the width's range, and anything outside that range is an
   explicit [Invalid_argument] — never a silent wrap. This file pins
   both halves: a qcheck model differential against a reference int
   array over random get/set/fill scripts at every width, and direct
   unit tests for the bounds/overflow raises the kernel's 16-bit dup
   tally depends on. *)

module Cells = Rumor_test_support.Cells

let widths = [ Cells.W8; Cells.W16; Cells.W32 ]

let width_name w =
  Printf.sprintf "%d-bit" (Cells.bits_of_width w)

(* --- unit tests: construction and the static width helpers --- *)

let test_create_zeroed () =
  List.iter
    (fun w ->
      let t = Cells.create w 77 in
      for i = 0 to 76 do
        Alcotest.(check int) "fresh cell is zero" 0 (Cells.get t i)
      done)
    widths;
  (* A zero-length vector is a valid value. *)
  ignore (Cells.create Cells.W8 0)

let test_width_for () =
  Alcotest.(check int) "0 fits 8" 8 (Cells.bits_of_width (Cells.width_for 0));
  Alcotest.(check int) "255 fits 8" 8
    (Cells.bits_of_width (Cells.width_for 255));
  Alcotest.(check int) "256 needs 16" 16
    (Cells.bits_of_width (Cells.width_for 256));
  Alcotest.(check int) "65535 fits 16" 16
    (Cells.bits_of_width (Cells.width_for 65535));
  Alcotest.(check int) "65536 needs 32" 32
    (Cells.bits_of_width (Cells.width_for 65536));
  Alcotest.(check int) "2^32-1 fits 32" 32
    (Cells.bits_of_width (Cells.width_for 0xFFFFFFFF));
  Alcotest.check_raises "2^32 has no width"
    (Invalid_argument "Cells.width_for: 4294967296 exceeds 32 bits")
    (fun () -> ignore (Cells.width_for 0x100000000));
  Alcotest.check_raises "negative has no width"
    (Invalid_argument "Cells.width_for: negative value") (fun () ->
      ignore (Cells.width_for (-1)))

let test_max_value () =
  Alcotest.(check int) "8-bit max" 255 (Cells.max_value (Cells.create Cells.W8 1));
  Alcotest.(check int) "16-bit max" 65535
    (Cells.max_value (Cells.create Cells.W16 1));
  Alcotest.(check int) "32-bit max" 0xFFFFFFFF
    (Cells.max_value (Cells.create Cells.W32 1))

(* --- unit tests: bounds and overflow are loud --- *)

let test_bounds_raise () =
  List.iter
    (fun w ->
      let t = Cells.create w 10 in
      let name = width_name w in
      Alcotest.check_raises (name ^ " get -1")
        (Invalid_argument "Cells.get: index -1 out of bounds [0, 10)")
        (fun () -> ignore (Cells.get t (-1)));
      Alcotest.check_raises (name ^ " get len")
        (Invalid_argument "Cells.get: index 10 out of bounds [0, 10)")
        (fun () -> ignore (Cells.get t 10));
      Alcotest.check_raises (name ^ " set -1")
        (Invalid_argument "Cells.set: index -1 out of bounds [0, 10)")
        (fun () -> Cells.set t (-1) 0);
      Alcotest.check_raises (name ^ " set len")
        (Invalid_argument "Cells.set: index 10 out of bounds [0, 10)")
        (fun () -> Cells.set t 10 0))
    widths

(* Overflow must be an explicit failure, not a silent wrap: a 16-bit
   cell asked to hold 65536 raises, and the cell keeps its old value.
   The kernel leans on this — the duplicate tally is a 16-bit cell, and
   a round delivering 2^16 copies to one node must crash the run rather
   than quietly truncate the count. *)
let test_overflow_raises_not_wraps () =
  List.iter
    (fun w ->
      let t = Cells.create w 4 in
      let max = Cells.max_value t in
      Cells.set t 2 max;
      Alcotest.(check int) "max value stores" max (Cells.get t 2);
      Alcotest.check_raises
        (width_name w ^ " overflow")
        (Invalid_argument
           (Printf.sprintf
              "Cells.set: value %d out of range [0, %d] for %d-bit cells"
              (max + 1) max (Cells.bits_of_width w)))
        (fun () -> Cells.set t 2 (max + 1));
      Alcotest.(check int) "cell unchanged after failed set" max
        (Cells.get t 2);
      Alcotest.check_raises (width_name w ^ " negative")
        (Invalid_argument
           (Printf.sprintf
              "Cells.set: value -1 out of range [0, %d] for %d-bit cells" max
              (Cells.bits_of_width w)))
        (fun () -> Cells.set t 2 (-1)))
    widths;
  let t = Cells.create Cells.W8 4 in
  Alcotest.check_raises "fill overflow"
    (Invalid_argument
       "Cells.fill: value 256 out of range [0, 255] for 8-bit cells")
    (fun () -> Cells.fill t 256)

(* --- unit test: no bleed between neighbouring cells --- *)

let test_neighbour_isolation () =
  List.iter
    (fun w ->
      let t = Cells.create w 9 in
      let max = Cells.max_value t in
      (* Saturate every odd cell, then check the even ones stayed 0. *)
      for i = 0 to 8 do
        if i mod 2 = 1 then Cells.set t i max
      done;
      for i = 0 to 8 do
        Alcotest.(check int)
          (Printf.sprintf "%s cell %d" (width_name w) i)
          (if i mod 2 = 1 then max else 0)
          (Cells.get t i)
      done)
    widths

let test_fill_and_reset () =
  List.iter
    (fun w ->
      (* Lengths off a word boundary exercise the fill tail path. *)
      List.iter
        (fun len ->
          let t = Cells.create w len in
          let v = min 0xAB (Cells.max_value t) in
          Cells.fill t v;
          for i = 0 to len - 1 do
            Alcotest.(check int) "filled" v (Cells.get t i)
          done;
          Cells.reset t;
          for i = 0 to len - 1 do
            Alcotest.(check int) "reset" 0 (Cells.get t i)
          done)
        [ 1; 7; 8; 9; 63; 64; 65 ])
    widths

(* --- qcheck: Cells.t = int array under random scripts --- *)

(* A script is a list of operations replayed against both a [Cells.t]
   and a plain [int array]; after every step the full contents must
   agree. Values are drawn in-range (out-of-range behaviour is pinned
   by the unit tests above). *)

type op = Set of int * int | Fill of int | Reset | Get of int

let script_of_seed ~len ~max_value seed =
  let rng = Rumor_test_support.Rng.create (0xCE115 + seed) in
  let value () = Rumor_test_support.Rng.int rng (min max_value 1_000_000 + 1) in
  let index () = Rumor_test_support.Rng.int rng len in
  List.init 200 (fun _ ->
      match Rumor_test_support.Rng.int rng 8 with
      | 0 -> Fill (value ())
      | 1 -> Reset
      | 2 | 3 | 4 -> Get (index ())
      | _ -> Set (index (), value ()))

let model_agrees width =
  QCheck.Test.make ~count:60
    ~name:
      (Printf.sprintf "Cells %s = int array on random scripts"
         (width_name width))
    QCheck.small_int
    (fun seed ->
      let len = 1 + (seed mod 97) in
      let cells = Cells.create width len in
      let model = Array.make len 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Set (i, v) ->
              Cells.set cells i v;
              model.(i) <- v
          | Fill v ->
              Cells.fill cells v;
              Array.fill model 0 len v
          | Reset ->
              Cells.reset cells;
              Array.fill model 0 len 0
          | Get i -> if Cells.get cells i <> model.(i) then ok := false);
          for i = 0 to len - 1 do
            if Cells.get cells i <> model.(i) then ok := false
          done)
        (script_of_seed ~len ~max_value:(Cells.max_value cells) seed);
      !ok)

let () =
  Alcotest.run "cells"
    [
      ( "unit",
        [
          Alcotest.test_case "create zeroes every width" `Quick
            test_create_zeroed;
          Alcotest.test_case "width_for picks the tightest width" `Quick
            test_width_for;
          Alcotest.test_case "max_value per width" `Quick test_max_value;
          Alcotest.test_case "index bounds raise" `Quick test_bounds_raise;
          Alcotest.test_case "overflow raises, never wraps" `Quick
            test_overflow_raises_not_wraps;
          Alcotest.test_case "neighbouring cells do not bleed" `Quick
            test_neighbour_isolation;
          Alcotest.test_case "fill/reset across word boundaries" `Quick
            test_fill_and_reset;
        ] );
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [
            model_agrees Cells.W8;
            model_agrees Cells.W16;
            model_agrees Cells.W32;
          ] );
    ]
