(* Fleet: provisioned concurrency across a multi-server deployment.

     dune exec examples/fleet.exe

   Four simulated servers behind a warm-first router.  An NFV-style
   NAT function has HORSE-provisioned sandboxes spread over the
   fleet; a bursty arrival process drives it.  Compare the routing
   policies: warm-first keeps every trigger on the fast path,
   round-robin occasionally lands on a server whose pool is dry. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Stats = Horse_sim.Stats
module Cluster = Horse_faas.Cluster
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Arrivals = Horse_trace.Arrivals
module Report = Horse.Report

let run routing =
  let engine = Engine.create ~seed:8 () in
  let cluster =
    Cluster.create ~servers:4 ~policy:(Cluster.Policy.push ~routing ()) ~seed:8
      ~engine ()
  in
  (* a ~2ms ML-inference-style function: long enough that several
     invocations are in flight, so a blind router can hit a server
     whose sandboxes are all busy *)
  Cluster.register cluster
    (Function_def.create ~name:"infer" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Fixed (Time.span_ms 2.0)) ~ull:true ());
  (* 8 warm sandboxes over 4 servers *)
  Cluster.provision cluster ~name:"infer" ~total:8 ~strategy:Sandbox.Horse;
  let rng = Rng.create ~seed:9 in
  let arrivals =
    Arrivals.poisson_process ~rng ~rate_per_s:2000.0 ~duration:(Time.span_s 1.0)
  in
  let inits = Stats.Sample.create () in
  let cold = ref 0 in
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             match
               Cluster.trigger cluster ~name:"infer"
                 ~mode:(Platform.Warm Sandbox.Horse)
                 ~on_complete:(fun (_, record) ->
                   Stats.Sample.add inits
                     (float_of_int (Time.span_to_ns record.Platform.init)))
                 ()
             with
             | Cluster.Accepted _ | Cluster.Queued -> ()
             | Cluster.Rejected _ ->
               (* a dry fleet: fall back to a cold start *)
               incr cold;
               ignore
                 (Cluster.trigger cluster ~name:"infer" ~mode:Platform.Cold ()))))
    arrivals;
  Engine.run engine;
  let spread =
    Cluster.triggers_per_server cluster
    |> Array.to_list
    |> List.map string_of_int
    |> String.concat "/"
  in
  [
    Cluster.routing_name routing;
    string_of_int (List.length arrivals);
    string_of_int !cold;
    Report.ns (Stats.Sample.percentile inits 50.0);
    Report.ns (Stats.Sample.percentile inits 99.0);
    spread;
  ]

let () =
  Report.print
    ~caption:
      "2000 triggers/s of a ~2ms function over a 4-server fleet, 8 \
       HORSE-provisioned sandboxes: warm-first follows the pools, the \
       blind policies pay cold fallbacks"
    ~header:
      [ "routing"; "triggers"; "cold fallbacks"; "init p50"; "init p99";
        "per-server triggers" ]
    (List.map run
       [ Cluster.Warm_first; Cluster.Least_loaded; Cluster.Round_robin ])
