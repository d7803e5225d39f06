include Rumor_stats.Regression

let loglog points =
  let mapped =
    List.map
      (fun (x, y) ->
        if x <= 0. || y <= 0. then
          invalid_arg "Regression.loglog: non-positive data";
        (log x, log y))
      points
  in
  linear mapped
