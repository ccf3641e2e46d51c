(* Cross-module integration scenarios: each test drives several
   libraries together the way a deployment would, then checks global
   invariants (queue sortedness, P²SM freshness, metric consistency,
   no stuck invocations). *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Topology = Horse_cpu.Topology
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Executor = Horse_sched.Cpu_executor
module Vcpu = Horse_sched.Vcpu
module Al = Horse_psm.Arena_list
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Api = Horse_vmm.Api
module Json = Horse_vmm.Json
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Cluster = Horse_faas.Cluster
module Category = Horse_workload.Category

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

(* ------------------------------------------------------------------ *)
(* Scenario 1: HORSE pause/resume interleaved with real execution      *)
(* churn on the same ull_runqueue.                                     *)
(* ------------------------------------------------------------------ *)

let test_psm_stays_fresh_under_execution_churn () =
  let engine = Engine.create ~seed:41 () in
  let scheduler = Scheduler.create ~ull_count:1 ~topology:small_topology () in
  let metrics = Metrics.create () in
  let vmm = Vmm.create ~jitter:0.0 ~scheduler ~metrics () in
  let executor =
    Executor.create_with_context_switch ~engine ~scheduler
      ~context_switch:(Time.span_ns 200) ()
  in
  let ull = List.hd (Scheduler.ull_runqueues scheduler) in
  (* two uLL sandboxes cycling through HORSE pause/resume *)
  let sandboxes =
    List.init 2 (fun i ->
        let sb = Sandbox.create ~id:i ~vcpus:3 ~memory_mb:512 ~ull:true () in
        ignore (Vmm.boot vmm sb);
        ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
        sb)
  in
  (* execution churn: free-standing work items rotate through the ull
     queue with 1 µs timeslices while the sandboxes are paused *)
  let completions = ref 0 in
  for worker = 10 to 13 do
    Executor.submit executor ~queue:ull
      ~vcpu:(Vcpu.create ~sandbox:worker ~index:0 ())
      ~work:(Time.span_us 20.0)
      ~on_done:(fun _ -> incr completions)
  done;
  (* meanwhile, resume and re-pause the sandboxes repeatedly *)
  let cycle = ref 0 in
  let rec churn sim =
    incr cycle;
    List.iter
      (fun sb ->
        match Sandbox.state sb with
        | Sandbox.Paused -> ignore (Vmm.resume vmm sb)
        | Sandbox.Running -> ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb)
        | Sandbox.Created | Sandbox.Booting | Sandbox.Stopped
        | Sandbox.Crashed -> ())
      sandboxes;
    if !cycle < 12 then ignore (Engine.schedule sim ~after:(Time.span_us 7.0) churn)
  in
  ignore (Engine.schedule engine ~after:(Time.span_us 3.0) churn);
  Engine.run engine;
  Alcotest.(check int) "all work completed" 4 !completions;
  Alcotest.(check bool) "ull queue sorted" true (Al.is_sorted (Runqueue.queue ull));
  Alcotest.(check int) "12 churn cycles ran" 12 !cycle;
  (* both sandboxes must still resume correctly after all the churn *)
  List.iter
    (fun sb ->
      if Sandbox.state sb = Sandbox.Paused then ignore (Vmm.resume vmm sb);
      Alcotest.(check bool) "running" true (Sandbox.state sb = Sandbox.Running))
    sandboxes;
  Alcotest.(check bool) "maintenance events flowed" true
    (Metrics.counter metrics "psm.maintenance_events" > 0)

(* ------------------------------------------------------------------ *)
(* Scenario 2: a fleet under an Azure-shaped storm, API-provisioned    *)
(* ------------------------------------------------------------------ *)

let test_fleet_under_trace_storm () =
  let engine = Engine.create ~seed:43 () in
  let cluster =
    Cluster.create ~servers:3
      ~policy:(Cluster.Policy.push ~routing:Cluster.Warm_first ())
      ~topology:small_topology ~seed:43 ~engine ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"fw" ~vcpus:1 ~memory_mb:512
       ~exec:(Function_def.Ull Category.Cat1) ());
  Cluster.provision cluster ~name:"fw" ~total:6 ~strategy:Sandbox.Horse;
  let rng = Horse_sim.Rng.create ~seed:44 in
  let arrivals =
    Horse_trace.Arrivals.poisson_process ~rng ~rate_per_s:500.0
      ~duration:(Time.span_s 2.0)
  in
  let fallbacks = ref 0 in
  List.iter
    (fun offset ->
      ignore
        (Engine.schedule engine ~after:offset (fun _ ->
             match
               Cluster.trigger cluster ~name:"fw"
                 ~mode:(Platform.Warm Sandbox.Horse) ()
             with
             | Cluster.Accepted _ | Cluster.Queued -> ()
             | Cluster.Rejected _ ->
               incr fallbacks;
               ignore (Cluster.trigger cluster ~name:"fw" ~mode:Platform.Cold ()))))
    arrivals;
  Engine.run engine;
  let records = Cluster.records cluster in
  Alcotest.(check int) "every trigger completed"
    (List.length arrivals)
    (List.length records);
  Alcotest.(check int) "nothing live" 0 (Cluster.live_invocations cluster);
  Alcotest.(check int) "pool restored" 6 (Cluster.pool_size cluster ~name:"fw");
  (* warm-first routing keeps the fast path dominant *)
  let warm =
    List.length
      (List.filter
         (fun (_, r) ->
           match r.Platform.mode with
           | Platform.Warm Sandbox.Horse -> true
           | Platform.Warm _ | Platform.Cold | Platform.Restore -> false)
         records)
  in
  Alcotest.(check bool)
    (Printf.sprintf "horse path dominates (%d/%d, %d fallbacks)" warm
       (List.length records) !fallbacks)
    true
    (float_of_int warm > 0.9 *. float_of_int (List.length records))

(* ------------------------------------------------------------------ *)
(* Scenario 3: lifecycle driven entirely through the management API    *)
(* ------------------------------------------------------------------ *)

let test_api_driven_fleet () =
  let scheduler = Scheduler.create ~ull_count:2 ~topology:small_topology () in
  let vmm =
    Vmm.create ~jitter:0.0 ~scheduler ~metrics:(Metrics.create ()) ()
  in
  let server = Api.Server.create ~vmm () in
  let request meth path body = Api.Server.handle server { Api.meth; path; body } in
  let expect_ok name (response : Api.response) =
    if response.Api.status >= 300 then
      Alcotest.failf "%s failed: %d %s" name response.Api.status
        (Json.to_string response.Api.body)
  in
  (* configure and start 4 uLL VMs over the wire *)
  for i = 0 to 3 do
    let vm = Printf.sprintf "/vms/vm%d" i in
    expect_ok "config"
      (request Api.Put (vm ^ "/config")
         {|{"vcpu_count": 2, "mem_size_mib": 256, "ull": true}|});
    expect_ok "start"
      (request Api.Put (vm ^ "/actions") {|{"action_type": "InstanceStart"}|})
  done;
  Alcotest.(check int) "4 registered" 4 (Api.Server.vm_count server);
  (* pause the whole fleet with HORSE, resume it twice *)
  for _round = 1 to 2 do
    for i = 0 to 3 do
      expect_ok "pause"
        (request Api.Patch
           (Printf.sprintf "/vms/vm%d/state" i)
           {|{"state": "Paused", "strategy": "horse"}|})
    done;
    for i = 0 to 3 do
      let response =
        request Api.Patch
          (Printf.sprintf "/vms/vm%d/state" i)
          {|{"state": "Resumed"}|}
      in
      expect_ok "resume" response;
      match Option.bind (Json.member "resume_ns" response.Api.body) Json.to_int with
      | Some ns ->
        Alcotest.(check bool) "fast resume over the API" true (ns < 250)
      | None -> Alcotest.fail "resume_ns missing"
    done
  done;
  (* every ull queue involved is still sorted *)
  List.iter
    (fun q ->
      Alcotest.(check bool) "sorted" true (Al.is_sorted (Runqueue.queue q)))
    (Scheduler.ull_runqueues scheduler)

(* ------------------------------------------------------------------ *)
(* Scenario 4: snapshot round-trip feeding the boot-phase model        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_to_boot_pipeline () =
  let module Snapshot = Horse_vmm.Snapshot in
  let module Boot = Horse_vmm.Boot in
  (* a "runtime-initialised" guest image: some pages written *)
  let memory = Snapshot.Memory.create ~size_mb:64 in
  for page = 0 to 511 do
    Snapshot.Memory.write memory ~page ~value:(page * 3)
  done;
  let snap = Snapshot.capture memory in
  let report = Snapshot.restore snap ~mode:Snapshot.Working_set in
  (* the restore the boot model prices must match the snapshot model's *)
  let restore_span = report.Snapshot.restore_latency in
  let boot_cost =
    Boot.cost ~snapshot_restore:restore_span Boot.firecracker_nodejs
      (Boot.Resume_after Boot.Runtime_init)
  in
  (* restore + code load + warmup *)
  Alcotest.(check int) "composed latency"
    (Time.span_to_ns restore_span + 210_000_000 + 115_000_000)
    (Time.span_to_ns boot_cost);
  (* and the memory really is the captured one *)
  Alcotest.(check int) "page contents" (100 * 3)
    (Snapshot.Memory.read report.Snapshot.memory ~page:100)

(* ------------------------------------------------------------------ *)
(* Scenario 5: determinism across the whole platform stack             *)
(* ------------------------------------------------------------------ *)

let test_full_stack_determinism () =
  let run () =
    let engine = Engine.create ~seed:77 () in
    let platform =
      Platform.create ~topology:small_topology ~seed:77 ~engine ()
    in
    Platform.register platform
      (Function_def.create ~name:"nat" ~vcpus:2 ~memory_mb:512
         ~exec:(Function_def.Ull Category.Cat2) ());
    Platform.provision platform ~name:"nat" ~count:2 ~strategy:Sandbox.Horse;
    for i = 0 to 49 do
      ignore
        (Engine.schedule engine
           ~after:(Time.span_us (float_of_int i *. 97.0))
           (fun _ ->
             Platform.trigger platform ~name:"nat"
               ~mode:(Platform.Warm Sandbox.Horse) ()))
    done;
    Engine.run engine;
    List.map
      (fun r ->
        ( Time.to_ns r.Platform.triggered_at,
          Time.span_to_ns (Platform.record_total r) ))
      (Platform.records platform)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same cardinality" (List.length a) (List.length b);
  List.iter2
    (fun (t1, l1) (t2, l2) ->
      Alcotest.(check int) "same trigger time" t1 t2;
      Alcotest.(check int) "same latency" l1 l2)
    a b

let () =
  Alcotest.run "horse_integration"
    [
      ( "scenarios",
        [
          Alcotest.test_case "P2SM fresh under execution churn" `Quick
            test_psm_stays_fresh_under_execution_churn;
          Alcotest.test_case "fleet under trace storm" `Quick
            test_fleet_under_trace_storm;
          Alcotest.test_case "API-driven fleet" `Quick test_api_driven_fleet;
          Alcotest.test_case "snapshot-to-boot pipeline" `Quick
            test_snapshot_to_boot_pipeline;
          Alcotest.test_case "full-stack determinism" `Quick
            test_full_stack_determinism;
        ] );
    ]
