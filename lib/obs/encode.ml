module Summary = Rumor_stats.Summary
module Engine = Rumor_sim.Engine
module Multi = Rumor_sim.Multi
module Async = Rumor_sim.Async
module Trace = Rumor_sim.Trace

let summary (s : Summary.t) =
  Json.Obj
    [
      ("count", Json.Int s.Summary.count);
      ("mean", Json.Float s.Summary.mean);
      ("stddev", Json.Float s.Summary.stddev);
      ("min", Json.Float s.Summary.min);
      ("max", Json.Float s.Summary.max);
      ("median", Json.Float s.Summary.median);
      ("p10", Json.Float s.Summary.p10);
      ("p90", Json.Float s.Summary.p90);
    ]

let epoch_stat (e : Engine.epoch_stat) =
  Json.Obj
    [
      ("epoch", Json.Int e.Engine.epoch);
      ("rounds", Json.Int e.Engine.epoch_rounds);
      ("informed", Json.Int e.Engine.epoch_informed);
      ("population", Json.Int e.Engine.epoch_population);
      ( "coverage",
        Json.Float
          (if e.Engine.epoch_population = 0 then 0.
           else
             float_of_int e.Engine.epoch_informed
             /. float_of_int e.Engine.epoch_population) );
      ("repair_push_tx", Json.Int e.Engine.repair_push_tx);
      ("repair_pull_tx", Json.Int e.Engine.repair_pull_tx);
      ("repair_channels", Json.Int e.Engine.repair_channels);
    ]

let engine_result (r : Engine.result) =
  Json.Obj
    ([
       ("rounds", Json.Int r.Engine.rounds);
       ( "completion_round",
         match r.Engine.completion_round with
         | Some c -> Json.Int c
         | None -> Json.Null );
       ("informed", Json.Int r.Engine.informed);
       ("population", Json.Int r.Engine.population);
       ("push_tx", Json.Int r.Engine.push_tx);
       ("pull_tx", Json.Int r.Engine.pull_tx);
       ("channels", Json.Int r.Engine.channels);
       ("success", Json.Bool (Engine.success r));
     ]
    @
    match r.Engine.repair with
    | [] -> []
    | epochs ->
        [
          ("coverage", Json.Float (Engine.coverage r));
          ("epochs_used", Json.Int (Engine.epochs_used r));
          ("repair_tx", Json.Int (Engine.repair_tx r));
          ("repair", Json.List (List.map epoch_stat epochs));
        ])

let multi_result (r : Multi.result) =
  Json.Obj
    [
       ("rounds", Json.Int r.Multi.rounds);
       ("channels", Json.Int r.Multi.channels);
       ("population", Json.Int r.Multi.population);
       ("total_tx", Json.Int (Multi.total_transmissions r));
       ("all_complete", Json.Bool (Multi.all_complete r));
       ( "messages",
         Json.List
           (Array.to_list
              (Array.map
                 (fun (m : Multi.message_result) ->
                   Json.Obj
                     [
                       ( "completion_round",
                         match m.Multi.completion_round with
                         | Some c -> Json.Int c
                         | None -> Json.Null );
                       ("informed", Json.Int m.Multi.informed);
                       ("transmissions", Json.Int m.Multi.transmissions);
                     ])
                 r.Multi.messages)) );
    ]

let async_result (r : Async.result) =
  Json.Obj
    [
      ("activations", Json.Int r.Async.activations);
      ("time", Json.Float r.Async.time);
      ( "completion_time",
        match r.Async.completion_time with
        | Some t -> Json.Float t
        | None -> Json.Null );
      ("informed", Json.Int r.Async.informed);
      ("transmissions", Json.Int r.Async.transmissions);
    ]

let violation (v : Rumor_sim.Invariant.violation) =
  Json.Obj
    [
      ("check", Json.String v.Rumor_sim.Invariant.check);
      ("round", Json.Int v.Rumor_sim.Invariant.round);
      ("detail", Json.String v.Rumor_sim.Invariant.detail);
    ]

let trace_row (r : Trace.row) =
  Json.Obj
    [
      ("round", Json.Int r.Trace.round);
      ("informed", Json.Int r.Trace.informed);
      ("newly", Json.Int r.Trace.newly);
      ("push_tx", Json.Int r.Trace.push_tx);
      ("pull_tx", Json.Int r.Trace.pull_tx);
      ("channels", Json.Int r.Trace.channels);
    ]

let trace_ndjson t =
  let buf = Buffer.create (96 * (Trace.length t + 1)) in
  List.iter
    (fun row ->
      Buffer.add_string buf (Json.to_string (trace_row row));
      Buffer.add_char buf '\n')
    (Trace.rows t);
  Buffer.contents buf

let float_list l = Json.List (List.map (fun x -> Json.Float x) l)