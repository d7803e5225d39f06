module Json = Rumor_obs.Json
include Rumor_obs.Metrics

type counters = (string, int ref) Hashtbl.t

let counters () : counters = Hashtbl.create 16

let cell t name =
  match Hashtbl.find_opt t name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t name r;
      r

let add t name k = cell t name := !(cell t name) + k
let incr t name = add t name 1
let get t name = match Hashtbl.find_opt t name with Some r -> !r | None -> 0

let counters_to_json t =
  let fields =
    Hashtbl.fold (fun name r acc -> (name, Json.Int !r) :: acc) t []
  in
  Json.Obj (List.sort (fun (a, _) (b, _) -> String.compare a b) fields)
