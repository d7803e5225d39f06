include Rumor_sim.Trace

let to_csv t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "round,informed,newly,push_tx,pull_tx,channels\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d,%d\n" r.round r.informed r.newly
           r.push_tx r.pull_tx r.channels))
    (rows t);
  Buffer.contents buf
