include Rumor_obs.Json

let escape_string s =
  let quoted = to_string (String s) in
  String.sub quoted 1 (String.length quoted - 2)
