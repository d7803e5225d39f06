(* Lists the top-level values of lib/*/*.mli that nothing outside their
   own module calls, and compares that list with a committed one.

   A value [v] of module [M] counts as called when a source file of lib,
   bin, bench, benchmark or examples other than m.ml/m.mli names it as
   [M.v] (possibly library-qualified, or through a [module X = ... M]
   alias as [X.v]), or names [v] anywhere in a file that opens [M]
   ([open M], [let open M in], [M.( ... )]). Comments and string literals
   are skipped. Test files are not scanned: a value only tests call is
   exactly what this check reports.

   Usage: prune_check.exe ROOT [EXPECTED]
   Without EXPECTED, prints the current list as [Library.Module.value]
   lines. With it, fails naming every unused value that is not listed
   and every listed value that has since gained a caller or gone away.
   EXPECTED has one value per line followed by its reason; blank lines
   and lines starting with '#' are ignored. *)

let read path = In_channel.with_open_bin path In_channel.input_all
let is_dir path = Sys.file_exists path && Sys.is_directory path
let entries dir = Sys.readdir dir |> Array.to_list |> List.sort compare

let rec sources dir =
  if not (is_dir dir) then []
  else
    entries dir
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if is_dir path then
             if name.[0] = '.' || name = "_build" then [] else sources path
           else if
             Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
           then [ path ]
           else [])

(* The text with comments, string and character literals blanked. *)
let code_only s =
  let n = String.length s and b = Bytes.of_string s in
  let rec string_end i =
    (* [i] is just past the opening quote. *)
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else if s.[i] = '(' && s.[i + 1] = '*' then comment_end (i + 2) (depth + 1)
    else if s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if s.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  let quoted = Str.regexp "{\\([a-z_]*\\)|" in
  let rec go i =
    if i < n then begin
      let skip j =
        for k = i to min j n - 1 do
          if s.[k] <> '\n' then Bytes.set b k ' '
        done;
        go j
      in
      if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then skip (comment_end i 0)
      else if s.[i] = '"' then skip (string_end (i + 1))
      else if s.[i] = '{' && Str.string_match quoted s i then
        let close = "|" ^ Str.matched_group 1 s ^ "}" in
        skip
          (try Str.search_forward (Str.regexp_string close) s i + String.length close
           with Not_found -> n)
      else if s.[i] = '\'' && i + 2 < n && s.[i + 2] = '\'' then skip (i + 3)
      else if s.[i] = '\'' && i + 1 < n && s.[i + 1] = '\\' then
        skip (try String.index_from s (i + 2) '\'' + 1 with Not_found -> n)
      else go (i + 1)
    end
  in
  go 0;
  Bytes.to_string b

(* The groups of every match of [re] in [s]. *)
let matches re s =
  let rec go i acc =
    match Str.search_forward re s i with
    | exception Not_found -> List.rev acc
    | _ ->
        let group k =
          try Some (Str.matched_group k s) with Not_found | Invalid_argument _ -> None
        in
        go (max (i + 1) (Str.match_end ())) (List.init 6 group :: acc)
  in
  go 0 []

let path = "\\([A-Z][A-Za-z0-9_']*\\(\\.[A-Z][A-Za-z0-9_']*\\)*\\)"
let value = "\\([a-z_][A-Za-z0-9_']*\\)"
let qualified = Str.regexp ("\\b" ^ path ^ "\\." ^ value)
let alias = Str.regexp ("\\bmodule +\\([A-Z][A-Za-z0-9_']*\\) *= *" ^ path)
let opens = Str.regexp ("\\b\\(open!? +\\)?" ^ path ^ "\\(\\.(\\)?")
let ident = Str.regexp ("\\b" ^ value)

(* Every (library option, module, value) a file may call. *)
let references file =
  let code = code_only (read file) in
  let aliases =
    matches alias code
    |> List.filter_map (function
         | [ _; Some x; Some p; _; _; _ ] -> Some (x, String.split_on_char '.' p)
         | _ -> None)
  in
  (* The (library option, module) a module path names in this file. *)
  let resolve p =
    let parts =
      match String.split_on_char '.' p with
      | first :: rest as parts -> (
          match List.assoc_opt first aliases with Some t -> t @ rest | None -> parts)
      | [] -> []
    in
    match List.rev parts with
    | m :: l :: _ when String.starts_with ~prefix:"Rumor_" l -> (Some l, m)
    | m :: _ -> (None, m)
    | [] -> (None, "")
  in
  let named =
    matches qualified code
    |> List.filter_map (function
         | [ _; Some p; _; Some v; _; _ ] ->
             let l, m = resolve p in
             Some (l, m, v)
         | _ -> None)
  in
  let opened =
    matches opens code
    |> List.filter_map (function
         | [ _; Some _; Some p; _; _; _ ] | [ _; None; Some p; _; Some _; _ ] ->
             Some (resolve p)
         | _ -> None)
  in
  let idents = matches ident code |> List.filter_map (fun g -> List.nth g 1) in
  named @ List.concat_map (fun (l, m) -> List.map (fun v -> (l, m, v)) idents) opened

let unused root =
  let calls =
    [ "lib"; "bin"; "bench"; "benchmark"; "examples" ]
    |> List.concat_map (fun d -> sources (Filename.concat root d))
    |> List.map (fun f -> (Filename.remove_extension f, references f))
  in
  let lib = Filename.concat root "lib" in
  entries lib
  |> List.filter (fun d -> is_dir (Filename.concat lib d))
  |> List.concat_map (fun d ->
         (* lib/<d> holds the library rumor_<d>. *)
         let library = "Rumor_" ^ d in
         entries (Filename.concat lib d)
         |> List.filter (fun f -> Filename.check_suffix f ".mli")
         |> List.concat_map (fun f ->
                let file = Filename.concat (Filename.concat lib d) f in
                let m = String.capitalize_ascii (Filename.chop_suffix f ".mli") in
                let own = Filename.remove_extension file in
                let called v (l, m', v') =
                  v' = v && m' = m && (l = None || l = Some library)
                in
                matches (Str.regexp ("^val " ^ value)) (code_only (read file))
                |> List.filter_map (fun g -> List.nth g 1)
                |> List.filter (fun v ->
                       not
                         (List.exists
                            (fun (f, refs) -> f <> own && List.exists (called v) refs)
                            calls))
                |> List.map (Printf.sprintf "%s.%s.%s" library m)))

let listed file =
  String.split_on_char '\n' (read file)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ "" ] | [] -> None
         | name :: _ when name.[0] = '#' -> None
         | [ name ] -> failwith (Printf.sprintf "%s: %s gives no reason" file name)
         | name :: _ -> Some name)

let () =
  match Sys.argv with
  | [| _; root |] -> List.iter print_endline (unused root)
  | [| _; root; file |] ->
      let found = unused root and known = listed file in
      let fresh = List.filter (fun k -> not (List.mem k known)) found in
      let stale = List.filter (fun k -> not (List.mem k found)) known in
      List.iter
        (Printf.printf
           "%s: exported but called only from its own module or tests; delete \
            it, drop it from the .mli, or list it with a reason\n")
        fresh;
      List.iter
        (Printf.printf
           "%s: listed as unused but now has a caller or is gone; drop its line\n")
        stale;
      if fresh <> [] || stale <> [] then begin
        Printf.printf "(compared against %s)\n" file;
        exit 1
      end
  | _ ->
      prerr_endline "usage: prune_check.exe ROOT [EXPECTED]";
      exit 2
