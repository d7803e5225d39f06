type degree_stats = {
  min : int;
  max : int;
  mean : float;
  variance : float;
}

let degree_stats g =
  let n = Graph.n g in
  if n = 0 then { min = 0; max = 0; mean = 0.; variance = 0. }
  else begin
    let mn = ref max_int and mx = ref 0 and sum = ref 0 and sq = ref 0. in
    for v = 0 to n - 1 do
      let d = Graph.degree g v in
      if d < !mn then mn := d;
      if d > !mx then mx := d;
      sum := !sum + d;
      sq := !sq +. (float_of_int d *. float_of_int d)
    done;
    let mean = float_of_int !sum /. float_of_int n in
    { min = !mn; max = !mx; mean; variance = (!sq /. float_of_int n) -. (mean *. mean) }
  end
