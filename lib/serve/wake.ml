(* A self-pipe doorbell. Any thread or domain (or a signal handler) may
   [ring]; one owner waits on [fd] in a [select] and calls [clear]
   before it looks at whatever the ring announced.

   Every ring writes one byte and [clear] reads until the pipe is
   empty. A ring whose byte [clear] consumed published its state before
   it wrote, so the owner sees that state when it looks after the
   clear; a ring whose write follows [clear]'s last read leaves its
   byte in the pipe. No ring is lost, at worst one costs a spurious
   wake-up. Both ends are non-blocking: a ring that finds the pipe full
   drops its byte (a full pipe is already a pending wake), and neither
   end can block. *)

type t = { r : Unix.file_descr; w : Unix.file_descr; scratch : Bytes.t }

let create () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  { r; w; scratch = Bytes.create 512 }

let fd t = t.r

let ring t =
  try ignore (Unix.single_write_substring t.w "!" 0 1)
  with Unix.Unix_error _ -> ()

let clear t =
  let rec empty () =
    match Unix.read t.r t.scratch 0 (Bytes.length t.scratch) with
    | 0 -> ()
    | _ -> empty ()
    | exception Unix.Unix_error _ -> ()
  in
  empty ()

let wait t ~timeout_s =
  (try ignore (Unix.select [ t.r ] [] [] timeout_s)
   with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  clear t

let close t =
  (try Unix.close t.r with Unix.Unix_error _ -> ());
  try Unix.close t.w with Unix.Unix_error _ -> ()
