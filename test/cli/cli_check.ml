(* Hostile command lines must be refused as usage errors: exit 2 with a
   message on stderr, never an uncaught exception (cmdliner's exit 125).
   A few flag sets that only used to be refused must now run.

   Usage: cli_check.exe RUMOR_EXE
   Prints one line per failing case and exits 1 if there is any. *)

(* [args] exits 2 and says why on stderr. *)
let refused =
  [
    [ "multi"; "-n"; "4"; "-d"; "8" ];
    [ "multi"; "--loss"; "2" ];
    [ "multi"; "--spacing=-1"; "--messages"; "2" ];
    [ "multi"; "--messages"; "0" ];
    [ "multi"; "-n"; "8388608" ];
    [ "async"; "-n"; "4"; "-d"; "8" ];
    [ "async"; "--loss=-1" ];
    [ "estimate"; "-n"; "4"; "-d"; "8" ];
    [ "estimate"; "-k"; "0" ];
    [ "broadcast"; "-n"; "4"; "-d"; "8" ];
    [ "generate"; "-n"; "4"; "-d"; "8" ];
    [ "heal"; "--domains=-3" ];
  ]

(* [args] runs a complete broadcast: exit 0. *)
let runs =
  [
    [ "multi"; "--topology"; "implicit-regular"; "-n"; "4096" ];
    [ "async"; "--topology"; "implicit-regular"; "-n"; "4096" ];
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Exit code and stderr of [exe args]; stdout is discarded. *)
let run exe args =
  let err_path = Filename.temp_file "cli_check" ".err" in
  let null = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null err
  in
  Unix.close null;
  Unix.close err;
  let _, status = Unix.waitpid [] pid in
  let stderr = read_file err_path in
  Sys.remove err_path;
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  (code, String.trim stderr)

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] -> exe
    | _ ->
        prerr_endline "usage: cli_check.exe RUMOR_EXE";
        exit 2
  in
  let failures = ref 0 in
  let check args ~ok ~want =
    let code, stderr = run exe args in
    if not (ok code stderr) then begin
      incr failures;
      Printf.printf "rumor %s: exit %d, want %s%s\n" (String.concat " " args)
        code want
        (if stderr = "" then "" else "; stderr: " ^ stderr)
    end
  in
  List.iter
    (check
       ~ok:(fun code stderr -> code = 2 && stderr <> "")
       ~want:"2 with a message on stderr")
    refused;
  List.iter (check ~ok:(fun code _ -> code = 0) ~want:"0") runs;
  if !failures > 0 then exit 1
