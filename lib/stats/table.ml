type align = Left | Right

type t = {
  headers : string list;
  aligns : align list;
  mutable rows : string list list;  (* reversed *)
}

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      t.headers
  in
  let pad align width s =
    let gap = width - String.length s in
    if gap <= 0 then s
    else
      match align with
      | Left -> s ^ String.make gap ' '
      | Right -> String.make gap ' ' ^ s
  in
  let line cells aligns =
    String.concat "  " (List.map2 (fun (w, a) c -> pad a w c)
        (List.combine widths aligns) cells)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (line t.headers t.aligns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter
    (fun row ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (line row t.aligns))
    rows;
  Buffer.contents buf

let print t = print_endline (render t)
