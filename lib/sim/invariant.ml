type violation = { check : string; round : int; detail : string }

type t = {
  limit : int;
  mutable recorded : violation list;  (* newest first, capped at [limit] *)
  mutable total : int;
  mutable checked : int;
}

let create ?(limit = 32) () =
  if limit < 1 then invalid_arg "Invariant.create: limit must be >= 1";
  { limit; recorded = []; total = 0; checked = 0 }

let record m ~check ~round ~detail =
  m.total <- m.total + 1;
  if List.length m.recorded < m.limit then
    m.recorded <- { check; round; detail } :: m.recorded

let tick m = m.checked <- m.checked + 1
let count m = m.total
let rounds_checked m = m.checked
let violations m = List.rev m.recorded

let pp_violation ppf v =
  Format.fprintf ppf "%s (round %d): %s" v.check v.round v.detail
