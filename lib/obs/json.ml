type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding --- *)

let escape_buf buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* JSON has no NaN/infinity; a shortest-round-trip float keeps bench
   records diffable without 17-digit noise. *)
let float_repr x =
  if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    if
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s
    then s
    else s ^ ".0"

let rec write ~minify ~indent buf v =
  let nl pad =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make pad ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | String s ->
      Buffer.add_char buf '"';
      escape_buf buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          write ~minify ~indent:(indent + 2) buf item)
        items;
      nl indent;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          Buffer.add_char buf '"';
          escape_buf buf k;
          Buffer.add_string buf (if minify then "\":" else "\": ");
          write ~minify ~indent:(indent + 2) buf item)
        fields;
      nl indent;
      Buffer.add_char buf '}'

let to_string ?(minify = true) v =
  let buf = Buffer.create 256 in
  write ~minify ~indent:0 buf v;
  Buffer.contents buf

let to_channel ?minify oc v =
  output_string oc (to_string ?minify v);
  output_char oc '\n'

(* --- parsing --- *)

exception Parse_error of int * string

let default_max_depth = 256

let of_string ?(max_depth = default_max_depth) s =
  if max_depth < 1 then invalid_arg "Json.of_string: max_depth must be >= 1";
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   pos := !pos + 4;
                   (* Encode the code point as UTF-8 (BMP only; escaped
                      surrogate pairs are rare in telemetry keys and are
                      kept as two 3-byte sequences, which round-trips
                      through our own encoder). *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  (* [depth] counts open containers. The parser recurses once per
     nesting level, so hostile input like 10^6 bytes of '[' would
     otherwise exhaust the OCaml stack; wire-facing consumers (the
     [rumor serve] NDJSON protocol) parse untrusted bytes through this
     function, so the bound is a hard security limit, not a nicety. *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        if depth >= max_depth then fail "nesting too deep";
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); field ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          field ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        if depth >= max_depth then fail "nesting too deep";
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec item () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); item ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          item ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
      Error (Printf.sprintf "byte %d: %s" at msg)

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
