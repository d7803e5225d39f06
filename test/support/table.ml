include Rumor_stats.Table

let add_float_row t ?(decimals = 2) row =
  add_row t (List.map (fun x -> Printf.sprintf "%.*f" decimals x) row)
