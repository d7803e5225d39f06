(* The multi-rumor driver: one kernel table per message, sharing each
   round's channel set. All round machinery lives in {!Kernel}. *)

type message = { source : int; created : int }

type message_result = {
  completion_round : int option;
  informed : int;
  transmissions : int;
}

type result = {
  rounds : int;
  channels : int;
  population : int;
  messages : message_result array;
  trace : Trace.t option;
}

let total_transmissions r =
  Array.fold_left (fun acc m -> acc + m.transmissions) 0 r.messages

let all_complete r =
  r.population > 0
  && Array.for_all (fun m -> m.informed = r.population) r.messages

let validate ~topology messages =
  let cap = topology.Topology.capacity in
  if messages = [] then invalid_arg "Multi.run: no messages";
  List.iter
    (fun m ->
      if m.source < 0 || m.source >= cap || not (topology.Topology.alive m.source)
      then invalid_arg "Multi.run: bad source";
      if m.created < 0 then invalid_arg "Multi.run: negative creation time")
    messages

let tables_of messages =
  Array.of_list
    (List.map
       (fun m -> { Kernel.sources = [ m.source ]; created = m.created })
       messages)

let of_kernel (k : Kernel.result) =
  {
    rounds = k.Kernel.rounds;
    channels = k.Kernel.channels;
    population = k.Kernel.population;
    messages =
      Array.map
        (fun (t : Kernel.table_result) ->
          {
            completion_round = t.Kernel.completion_round;
            informed = t.Kernel.informed;
            transmissions = t.Kernel.push_tx + t.Kernel.pull_tx;
          })
        k.Kernel.tables;
    trace = k.Kernel.trace;
  }

let run ?fault ?collect_trace ~rng ~topology ~protocol ~messages () =
  validate ~topology messages;
  of_kernel
    (Kernel.run ?fault ?collect_trace ~rng ~topology ~protocol
       ~tables:(tables_of messages) ())
