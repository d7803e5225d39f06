type span = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;
  heap_words : int;
  peak_rss_kb : int;
}

(* VmHWM from /proc/self/status: the process's peak resident set in
   kB. The GC's top_heap_words only sees the OCaml heap; Bytes-backed
   tables, stacks and the runtime itself show up here. 0 when the file
   or the field is unavailable (non-Linux). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line ->
                if
                  String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  let v =
                    String.trim (String.sub line 6 (String.length line - 6))
                  in
                  let digits =
                    match String.index_opt v ' ' with
                    | Some i -> String.sub v 0 i
                    | None -> v
                  in
                  Option.value (int_of_string_opt digits) ~default:0
                else scan ()
          in
          scan ())

let timed f =
  let g0 = Gc.quick_stat () in
  let cpu0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  let result = f () in
  let wall1 = Unix.gettimeofday () in
  let cpu1 = Sys.time () in
  let g1 = Gc.quick_stat () in
  ( result,
    {
      wall_s = wall1 -. wall0;
      cpu_s = cpu1 -. cpu0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      compactions = g1.Gc.compactions - g0.Gc.compactions;
      top_heap_words = g1.Gc.top_heap_words;
      heap_words = g1.Gc.heap_words;
      peak_rss_kb = peak_rss_kb ();
    } )

let span_to_json s =
  Json.Obj
    [
      ("wall_s", Json.Float s.wall_s);
      ("cpu_s", Json.Float s.cpu_s);
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float s.minor_words);
            ("major_words", Json.Float s.major_words);
            ("minor_collections", Json.Int s.minor_collections);
            ("major_collections", Json.Int s.major_collections);
            ("compactions", Json.Int s.compactions);
            ("top_heap_words", Json.Int s.top_heap_words);
            ("heap_words", Json.Int s.heap_words);
          ] );
      ("peak_rss_kb", Json.Int s.peak_rss_kb);
    ]
