module Rng = Rumor_rng.Rng

type spec =
  | Uniform of { fanout : int }
  | Avoid_recent of { fanout : int; window : int }
  | Quasirandom of { fanout : int }

let fanout = function
  | Uniform { fanout } | Avoid_recent { fanout; _ } | Quasirandom { fanout } ->
      fanout

let validate spec =
  if fanout spec < 1 then invalid_arg "Selector: fanout < 1";
  match spec with
  | Avoid_recent { window; _ } when window < 0 ->
      invalid_arg "Selector: window < 0"
  | Uniform _ | Avoid_recent _ | Quasirandom _ -> ()

type t =
  | Stateless of { k : int }
  | Memory of {
      k : int;
      window : int;
      recent : int array;  (* capacity * window ring of neighbour indices *)
      cursor : int array;  (* next ring slot per node *)
    }
  | Cyclic of { k : int; pos : int array (* -1 = not started *) }

let make spec ~capacity =
  validate spec;
  match spec with
  | Uniform { fanout } -> Stateless { k = fanout }
  | Avoid_recent { fanout; window } ->
      Memory
        {
          k = fanout;
          window;
          recent = Array.make (max (capacity * window) 1) (-1);
          cursor = Array.make (max capacity 1) 0;
        }
  | Quasirandom { fanout } ->
      Cyclic { k = fanout; pos = Array.make (max capacity 1) (-1) }

let select t ~rng ~node ~degree ~out =
  if degree <= 0 then 0
  else
    match t with
    | Stateless { k } ->
        let k = min k degree in
        Rng.distinct_into rng ~bound:degree ~k out
    | Cyclic { k; pos } ->
        let k = min k degree in
        if pos.(node) < 0 then pos.(node) <- Rng.int rng degree;
        (* Churn may have shrunk the adjacency list since the last call. *)
        let p = ref (pos.(node) mod degree) in
        for i = 0 to k - 1 do
          out.(i) <- !p;
          p := (!p + 1) mod degree
        done;
        pos.(node) <- !p;
        k
    | Memory { k; window; recent; cursor } ->
        let k = min k degree in
        let base = node * window in
        let blocked i =
          let b = ref false in
          for j = 0 to window - 1 do
            if recent.(base + j) = i then b := true
          done;
          !b
        in
        (* If the memory window plus this round's picks would exhaust the
           adjacency list, amnesia is the only sound choice. *)
        let usable = window + k <= degree in
        let chosen = ref 0 in
        let guard = ref 0 in
        while !chosen < k && !guard < 64 * (k + 1) do
          incr guard;
          let i = Rng.int rng degree in
          let dup = ref (usable && blocked i) in
          for j = 0 to !chosen - 1 do
            if out.(j) = i then dup := true
          done;
          if not !dup then begin
            out.(!chosen) <- i;
            incr chosen
          end
        done;
        (* Rejection virtually always succeeds; fall back to a scan if the
           guard tripped (tiny degrees). *)
        if !chosen < k then begin
          chosen := 0;
          let i = ref 0 in
          while !chosen < k && !i < degree do
            let taken = ref false in
            for j = 0 to !chosen - 1 do
              if out.(j) = !i then taken := true
            done;
            if not !taken then begin
              out.(!chosen) <- !i;
              incr chosen
            end;
            incr i
          done
        end;
        for j = 0 to !chosen - 1 do
          if window > 0 then begin
            recent.(base + cursor.(node)) <- out.(j);
            cursor.(node) <- (cursor.(node) + 1) mod window
          end
        done;
        !chosen
