let glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let render data =
  if Array.length data = 0 then ""
  else begin
    let finite = Array.to_list data |> List.filter (fun x -> Float.is_finite x) in
    match finite with
    | [] -> String.concat "" (List.init (Array.length data) (fun _ -> " "))
    | first :: rest ->
        let lo = List.fold_left Float.min first rest in
        let hi = List.fold_left Float.max first rest in
        let span = hi -. lo in
        let buf = Buffer.create (3 * Array.length data) in
        Array.iter
          (fun x ->
            if not (Float.is_finite x) then Buffer.add_char buf ' '
            else begin
              let level =
                if span = 0. then 3
                else begin
                  let raw = int_of_float ((x -. lo) /. span *. 7.99) in
                  if raw < 0 then 0 else if raw > 7 then 7 else raw
                end
              in
              Buffer.add_string buf glyphs.(level)
            end)
          data;
        Buffer.contents buf
  end

let with_scale data =
  if Array.length data = 0 then ""
  else begin
    let lo = Array.fold_left Float.min data.(0) data in
    let hi = Array.fold_left Float.max data.(0) data in
    Printf.sprintf "%.3g %s %.3g" lo (render data) hi
  end
