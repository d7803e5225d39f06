include Rumor_stats.Experiment

let success_rate ~seed ~reps f =
  let results = replicate ~seed ~reps f in
  let hits =
    List.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 results
  in
  float_of_int hits /. float_of_int (max 1 (List.length results))
