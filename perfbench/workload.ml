(* The four workloads: how each is sized, set up, run and checked.

   Every workload is an open-loop trace in simulated time, simulated
   as one fixed batch on the host; the benchmark measures the host
   cost of that simulation.  Everything reaches the library through
   its public API only. *)

module Time = Horse_sim.Time_ns
module Engine = Horse_sim.Engine
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Quantile = Horse_sim.Stats.Quantile
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Sandbox = Horse_vmm.Sandbox
module Fault = Horse_fault.Fault
module Batch = Horse_trace.Batch
module Team = Horse_parallel.Team
module Cluster = Horse_faas.Cluster
module Platform = Horse_faas.Platform
module Function_def = Horse_faas.Function_def
module Workflow = Horse_faas.Workflow
module Trigger_records = Horse_faas.Trigger_records
module Category = Horse_workload.Category

type kind = Warm_storm | Pull_blackout | Parked_fleet | Nfv_chain

let kinds =
  [
    ("warm-storm", Warm_storm);
    ("pull-blackout", Pull_blackout);
    ("parked-fleet", Parked_fleet);
    ("nfv-chain", Nfv_chain);
  ]

let name_of kind = fst (List.find (fun (_, k) -> k = kind) kinds)

type spec = {
  kind : kind;
  seed : int;
  servers : int;
  shards : int;  (** execution strands of a sharded cluster *)
  parked : int;  (** warm sandboxes provisioned (per unit for nfv-chain) *)
  ull_count : int;  (** reserved ull run queues per server *)
  arrivals : int;  (** batch rows: triggers, or workflow instances *)
  duration : Time.span;  (** simulated span the arrivals cover *)
  replicas : int;  (** independent clusters per measured cycle *)
}

(* The plan rolls once per simulated second of horizon, so at rate 1.0
   every server blacks out exactly once; a lower rate makes the number
   of outages, and so the work per trigger, swing with the seed. *)
let blackout_rate = 1.0

(* Sizes: each run phase takes roughly half a second to a second of
   host time on a 2-core x86 host, so a 20 s measurement holds many
   set-up + run cycles and reports their medians.  [traced] selects the
   shard count of the traced run where it differs. *)
let spec ~kind ~seed ~cores ~traced =
  match kind with
  | Warm_storm ->
    (* 16 parked per ull queue: resumes dominate, P²SM fan-out is small *)
    {
      kind;
      seed;
      servers = 1;
      shards = 1;
      parked = 512;
      ull_count = 32;
      arrivals = 40_000;
      duration = Time.span_s 0.4;
      replicas = 1;
    }
  | Pull_blackout ->
    (* 100k triggers/s at a 300us service time is ~30 in flight per 64
       sandboxes: capacity is tight, so pull claims and the pending
       queue do real work.  One cluster's cost per trigger swings by
       ~15% with where its four outages fall, so a cycle runs 32
       independent replicas (128 outages) and the seed-to-seed spread
       of the sum stays near 5%. *)
    {
      kind;
      seed;
      servers = 4;
      shards = 1;
      parked = 64;
      ull_count = 1;
      arrivals = 2_000;
      duration = Time.span_s 0.02;
      replicas = 32;
    }
  | Parked_fleet ->
    (* ~256 parked per ull queue: every queue mutation fans P²SM
       maintenance out to that many paused subscribers.  The traced run
       uses a Team of one strand per core, so the team.* and
       shard_engine.* layers show how the work splits over domains; the
       end-to-end run stays on one domain, because on a shared 2-core
       host the cross-domain wake-ups made its wall time drift by 40%
       between runs minutes apart (results are identical at any shard
       count). *)
    {
      kind;
      seed;
      servers = 8;
      shards = (if traced then max 1 cores else 1);
      parked = 32_768;
      ull_count = 16;
      arrivals = 4_000;
      duration = Time.span_s 0.4;
      replicas = 1;
    }
  | Nfv_chain ->
    {
      kind;
      seed;
      servers = 4;
      shards = 1;
      parked = 64;
      ull_count = 1;
      arrivals = 16_000;
      duration = Time.span_s 0.8;
      replicas = 1;
    }

(* Independent streams derived from the workload seed: the cluster,
   the arrival generator, the fault plan and the workflow instance
   seeds never share draws. *)
let derived spec index =
  Rng.int (Rng.derive (Rng.create ~seed:spec.seed) ~index) (1 lsl 30)

(* Replica [r] of a cycle: replica 0 is the workload seed itself, the
   others take seeds derived from it. *)
let replica spec r = if r = 0 then spec else { spec with seed = derived spec (16 + r) }

let fn_name = "ull"

type workflow = { wf : Workflow.t; wf_id : int; graph : Workflow.graph }

type t = {
  spec : spec;
  cluster : Cluster.t;
  workflow : workflow option;
  instance_seeds : int array;  (** nfv-chain: payload seed per row *)
}

(* Set-up phases, named as the traced run reports them.  [phase name f]
   runs [f]; the traced run wraps it in a span. *)
type phase = { phase : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { phase = (fun _ f -> f ()) }

let create_cluster spec =
  let topology = Topology.r650_smt and cost = Cost_model.firecracker in
  let seed = derived spec 0 in
  let servers = spec.servers and ull_count = spec.ull_count in
  match spec.kind with
  | Warm_storm ->
    Cluster.create ~servers ~topology ~cost ~seed ~ull_count
      ~engine:(Engine.create ~seed ()) ()
  | Pull_blackout ->
    (* whole-server outages plus correlated snapshot corruption, so
       the recovery ladder and mirror reconciliation both run *)
    let faults =
      Fault.Plan.create ~seed:(derived spec 1)
        ~rates:
          [
            (Fault.Server_blackout, blackout_rate);
            (Fault.Restore_corruption, 0.5 *. blackout_rate);
          ]
        ()
    in
    Cluster.create_sharded ~servers ~topology ~cost ~seed ~faults
      ~policy:(Cluster.Policy.pull ()) ~e2e:true
      ~recovery:Platform.Recovery.default ~ull_count ~shards:spec.shards ()
  | Parked_fleet ->
    Cluster.create_sharded ~servers ~topology ~cost ~seed ~ull_count
      ~shards:spec.shards ()
  | Nfv_chain ->
    Cluster.create_sharded ~servers ~topology ~cost ~seed ~shards:spec.shards
      ()

let warm_horse = Platform.mode_code (Platform.Warm Sandbox.Horse)

let provision spec cluster =
  match spec.kind with
  | Warm_storm | Parked_fleet ->
    Cluster.register cluster
      (Function_def.create ~name:fn_name ~vcpus:2 ~memory_mb:512
         ~exec:(Function_def.Ull Category.Cat2) ());
    Cluster.provision cluster ~name:fn_name ~total:spec.parked
      ~strategy:Sandbox.Horse;
    None
  | Pull_blackout ->
    (* a fixed 300us service time makes warm capacity a real limit *)
    Cluster.register cluster
      (Function_def.create ~name:fn_name ~vcpus:2 ~memory_mb:512
         ~exec:(Function_def.Fixed (Time.span_us 300.0)) ~ull:true ());
    Cluster.provision cluster ~name:fn_name ~total:spec.parked
      ~strategy:Sandbox.Horse;
    None
  | Nfv_chain ->
    List.iter (Cluster.register cluster) (Workflow.nfv_defs ());
    let wf = Workflow.create ~cluster () in
    let graph = Workflow.nfv_chain () in
    let wf_id = Workflow.register wf ~name:"nfv" graph in
    Workflow.provision wf ~wf_id ~per_unit:spec.parked;
    Some { wf; wf_id; graph }

let make_batch spec cluster workflow =
  let rng = Rng.create ~seed:(derived spec 2) in
  let n = spec.arrivals and duration = spec.duration in
  match (spec.kind, workflow) with
  | (Warm_storm | Parked_fleet), _ ->
    let fn_id = Cluster.fn_id cluster ~name:fn_name in
    (Batch.uniform ~rng ~n ~duration ~fn_id ~payload:warm_horse (), [||])
  | Pull_blackout, _ ->
    let fn_id = Cluster.fn_id cluster ~name:fn_name in
    ( Batch.bursty ~rng ~n ~duration ~burst:48 ~fn_id ~payload:warm_horse (),
      [||] )
  | Nfv_chain, Some w ->
    let batch = Batch.uniform ~rng ~n ~duration ~fn_id:w.wf_id () in
    (* payload 0 would mean "default seed"; keep every seed positive *)
    let seeds_rng = Rng.create ~seed:(derived spec 3) in
    let seeds = Array.init n (fun _ -> 1 + Rng.int seeds_rng (1 lsl 30)) in
    Batch.stamp_payloads batch (fun i -> seeds.(i));
    (batch, seeds)
  | Nfv_chain, None -> invalid_arg "Workload.make_batch: no workflow"

(* The team is spawned lazily by the first [Cluster.run]; run one round
   here so that cost lands in set-up, not in the run phase.  The round
   also gives every team domain the benchmark's GC settings. *)
let warm_team spec =
  if spec.shards > 1 then
    Team.run (Team.shared ~width:spec.shards) (fun _ -> Gc_meter.configure ())

let setup { phase } spec =
  let cluster = phase "cluster.create" (fun () -> create_cluster spec) in
  phase "team.warm" (fun () -> warm_team spec);
  let workflow = phase "cluster.provision" (fun () -> provision spec cluster) in
  let batch, instance_seeds =
    phase "ingest.batch" (fun () -> make_batch spec cluster workflow)
  in
  phase "ingest.schedule" (fun () ->
      (match workflow with
      | Some w -> Workflow.schedule_batch w.wf batch
      | None -> Cluster.schedule_batch cluster batch);
      if spec.kind = Pull_blackout then
        ignore (Cluster.schedule_faults cluster ~horizon:spec.duration));
  { spec; cluster; workflow; instance_seeds }

(* ------------------------------------------------------------------ *)
(* Results: what the run phase reads back                              *)
(* ------------------------------------------------------------------ *)

type results = {
  completed : int;  (** triggers, or workflow instances *)
  rejected : int;  (** router rejections, or failed instances *)
  pending : int;  (** still queued at the router *)
  p50_us : float;  (** simulated latency percentiles *)
  p99_us : float;
  p999_us : float;
}

let percentiles q =
  let p x = if Quantile.count q = 0 then 0.0 else Quantile.percentile q x in
  (p 50.0, p 99.0, p 99.9)

let latency_quantile () = Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ()

(* Counts and percentiles, as a user of the simulator reads them after
   a run: per-record latencies streamed from the arenas, or the
   workflow manager's instance latencies. *)
let read_results t =
  match t.workflow with
  | Some w ->
    let p50_us, p99_us, p999_us = percentiles (Workflow.e2e w.wf) in
    {
      completed = Workflow.instances_completed w.wf;
      rejected = Workflow.instances_failed w.wf;
      pending = Cluster.pending_count t.cluster;
      p50_us;
      p99_us;
      p999_us;
    }
  | None ->
    let q = latency_quantile () in
    let c = t.cluster in
    Cluster.iter_records c (fun server slot ->
        let a = Platform.trigger_records (Cluster.server c server) in
        Quantile.add q (float_of_int (Trigger_records.total_ns a slot) /. 1e3));
    let p50_us, p99_us, p999_us = percentiles q in
    {
      completed = Cluster.record_count c;
      rejected = List.length (Cluster.rejections c);
      pending = Cluster.pending_count c;
      p50_us;
      p99_us;
      p999_us;
    }

(* The untraced run phase: exactly what a user calls. *)
let run t =
  (match t.workflow with
  | Some w -> Workflow.run w.wf
  | None -> Cluster.run t.cluster);
  read_results t

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let sum_servers cluster f =
  let acc = ref 0 in
  for s = 0 to Cluster.server_count cluster - 1 do
    acc := !acc + f (Cluster.server cluster s)
  done;
  !acc

let server_counter cluster name =
  sum_servers cluster (fun p -> Metrics.counter (Platform.metrics p) name)

(* Arrivals that ended neither completed, rejected nor pending: lost to
   a blackout, aborted after the retry budget, or still in flight. *)
let lost t =
  match t.workflow with
  | Some w ->
    Workflow.instances_started w.wf
    - Workflow.instances_completed w.wf
    - Workflow.instances_failed w.wf
  | None ->
    Metrics.counter (Cluster.metrics t.cluster) "cluster.blackout_lost"
    + server_counter t.cluster "platform.aborts"
    + Cluster.live_invocations t.cluster

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

type checked = {
  violations : int;  (** arrivals that fail an output check *)
  lost : int;
  digest : int;  (** over the record arenas; exact as a JSON number *)
}

let check t (r : results) =
  let c = t.cluster in
  let violations = ref 0 in
  let lost = lost t in
  (* conservation: every arrival is accounted for exactly once *)
  let accounted = r.completed + r.rejected + r.pending + lost in
  violations := !violations + abs (t.spec.arrivals - accounted);
  (* every record: completed - triggered = init + exec + preemption *)
  let digest = ref (mix 0 t.spec.arrivals) in
  Cluster.iter_records c (fun server slot ->
      let a = Platform.trigger_records (Cluster.server c server) in
      let triggered = Time.to_ns (Trigger_records.triggered_at a slot) in
      let completed = Time.to_ns (Trigger_records.completed_at a slot) in
      if completed - triggered <> Trigger_records.total_ns a slot then
        incr violations;
      List.iter
        (fun x -> digest := mix !digest x)
        [
          server;
          Trigger_records.fn_id a slot;
          Trigger_records.mode_code a slot;
          triggered;
          Time.span_to_ns (Trigger_records.init a slot);
          Time.span_to_ns (Trigger_records.exec a slot);
          Time.span_to_ns (Trigger_records.preemption a slot);
          completed;
        ]);
  (match t.workflow with
  | None -> ()
  | Some w ->
    (* node values equal the sequential oracle of their instance *)
    let module R = Workflow.Records in
    let oracles = Hashtbl.create 64 in
    let oracle instance =
      match Hashtbl.find_opt oracles instance with
      | Some v -> v
      | None ->
        let v = Workflow.oracle_values w.graph ~seed:t.instance_seeds.(instance) in
        Hashtbl.replace oracles instance v;
        v
    in
    let bad_instances = Hashtbl.create 16 in
    for k = 0 to R.count w.wf - 1 do
      let instance = R.instance w.wf k and node = R.node w.wf k in
      let value = R.value w.wf k in
      if
        instance < 0
        || instance >= Array.length t.instance_seeds
        || value <> (oracle instance).(node)
        || R.completed_ns w.wf k - R.triggered_ns w.wf k
           <> R.init_ns w.wf k + R.exec_ns w.wf k + R.preemption_ns w.wf k
      then Hashtbl.replace bad_instances instance ();
      List.iter
        (fun x -> digest := mix !digest x)
        [ instance; node; value; R.server w.wf k; R.completed_ns w.wf k ]
    done;
    violations := !violations + Hashtbl.length bad_instances;
    (* a chain of n nodes leaves n rows per completed instance *)
    if r.rejected = 0 && lost = 0 then
      violations :=
        !violations
        + abs (R.count w.wf - (Workflow.node_count w.graph * r.completed))
        / Workflow.node_count w.graph);
  { violations = !violations; lost; digest = !digest land ((1 lsl 52) - 1) }
