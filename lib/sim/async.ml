(* The asynchronous Poisson-clock driver: validates its inputs, then
   runs {!Kernel.run_async} (which shares the selection, fault-sampling,
   delivery and quiescence machinery with the synchronous kernel). *)

type result = Kernel.async_result = {
  activations : int;
  time : float;
  completion_time : float option;
  informed : int;
  transmissions : int;
  trace : Trace.t option;
}

let run ?(fault = Fault.none) ?stop_when_complete ?collect_trace ~rng
    ~topology ~protocol ~sources () =
  let n = topology.Topology.capacity in
  if sources = [] then invalid_arg "Async.run: no sources";
  List.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Async.run: bad source")
    sources;
  if Topology.alive_count topology <> n then
    invalid_arg "Async.run: every node id must be live";
  if
    fault.Fault.burst <> None || Fault.has_node_faults fault
    || fault.Fault.partition <> None
  then
    invalid_arg
      "Async.run: bursts, node faults and partitions need synchronous rounds";
  Kernel.run_async ~fault ?stop_when_complete ?collect_trace ~rng ~topology
    ~protocol ~sources ()
