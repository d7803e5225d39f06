type row = {
  round : int;
  informed : int;
  newly : int;
  push_tx : int;
  pull_tx : int;
  channels : int;
}

type t = { mutable rows : row array; mutable len : int }

let create () = { rows = [||]; len = 0 }

let dummy = { round = 0; informed = 0; newly = 0; push_tx = 0; pull_tx = 0; channels = 0 }

let add t row =
  if t.len = Array.length t.rows then begin
    let cap = max 16 (2 * Array.length t.rows) in
    let rows = Array.make cap dummy in
    Array.blit t.rows 0 rows 0 t.len;
    t.rows <- rows
  end;
  t.rows.(t.len) <- row;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index";
  t.rows.(i)

let rows t = Array.to_list (Array.sub t.rows 0 t.len)

let pp_row ppf r =
  Format.fprintf ppf "%5d %9d %8d %9d %9d %9d" r.round r.informed r.newly
    r.push_tx r.pull_tx r.channels

let informed_series t =
  Array.init t.len (fun i -> float_of_int t.rows.(i).informed)

let pp ppf t =
  Format.fprintf ppf "%5s %9s %8s %9s %9s %9s@." "round" "informed" "newly"
    "push_tx" "pull_tx" "channels";
  List.iter (fun r -> Format.fprintf ppf "%a@." pp_row r) (rows t)
