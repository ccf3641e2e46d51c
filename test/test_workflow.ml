(* Workflow DAG tests: the fusion planner, the completion-driven
   stepper, and the oracle-equivalence suite — every generated DAG
   runs fused, unfused and node-at-a-time sequential, and all three
   must agree with the pure value oracle; record streams must be
   bit-identical across shard counts and value-identical across
   scheduling policies. *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Workflow = Horse_faas.Workflow
module Function_def = Horse_faas.Function_def
module Sandbox = Horse_vmm.Sandbox
module Category = Horse_workload.Category
module Batch = Horse_trace.Batch

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

(* A palette of uLL functions the generated DAGs draw from: node [i]
   runs palette function [i mod 4], so any two runs of the same shape
   invoke the same functions in the same places. *)
let palette =
  [|
    ("wfn-a", Category.Cat1);
    ("wfn-b", Category.Cat2);
    ("wfn-c", Category.Cat3);
    ("wfn-d", Category.Cat2);
  |]

let register_palette cluster =
  Array.iter
    (fun (name, cat) ->
      Cluster.register cluster
        (Function_def.create ~name ~vcpus:1 ~memory_mb:128
           ~exec:(Function_def.Ull cat) ()))
    palette

let fn_of_node i = fst palette.(i mod Array.length palette)

let graph_of_shape (shape : Harness.Dag.shape) =
  let b = Workflow.Builder.create () in
  for i = 0 to shape.Harness.Dag.nodes - 1 do
    let deps =
      List.filter_map
        (fun (s, d) -> if d = i then Some s else None)
        shape.Harness.Dag.edges
    in
    ignore
      (Workflow.Builder.add b ~name:(fn_of_node i)
         ~mode:(Platform.Warm Sandbox.Horse) ~deps)
  done;
  Workflow.Builder.build b

(* One direct-cluster run of [graph]: returns the manager after
   [instances] workflow starts have drained. *)
let run_direct ?(fuse = false) ?policy ?(servers = 2) ?(seed = 11)
    ?(instances = 3) graph =
  let engine = Engine.create ~seed () in
  let cluster =
    Cluster.create ~servers ?policy ~topology:small_topology ~seed ~engine ()
  in
  register_palette cluster;
  let wf = Workflow.create ~fuse ~cluster () in
  let id = Workflow.register wf ~name:"g" graph in
  Workflow.provision wf ~wf_id:id ~per_unit:8;
  for _ = 1 to instances do
    ignore (Workflow.start wf ~wf_id:id ())
  done;
  Workflow.run wf;
  wf

let run_sharded ?(fuse = false) ?policy ?(servers = 2) ?(shards = 1)
    ?(seed = 11) ?(instances = 3)
    ?(placement = Time.span_us 50.0) graph =
  let cluster =
    Cluster.create_sharded ~servers ?policy ~topology:small_topology ~seed
      ~placement ~shards ()
  in
  register_palette cluster;
  let wf = Workflow.create ~fuse ~cluster () in
  let id = Workflow.register wf ~name:"g" graph in
  Workflow.provision wf ~wf_id:id ~per_unit:8;
  for _ = 1 to instances do
    ignore (Workflow.start wf ~wf_id:id ())
  done;
  Workflow.run wf;
  wf

(* The full observable record stream, completion order. *)
let stream wf =
  List.init (Workflow.Records.count wf) (fun i ->
      ( Workflow.Records.instance wf i,
        Workflow.Records.node wf i,
        Workflow.Records.value wf i,
        Workflow.Records.server wf i,
        Workflow.Records.triggered_ns wf i,
        Workflow.Records.init_ns wf i,
        Workflow.Records.exec_ns wf i,
        Workflow.Records.preemption_ns wf i,
        Workflow.Records.completed_ns wf i ))

(* (instance, node) -> value, order-independent. *)
let value_map wf =
  List.sort compare
    (List.init (Workflow.Records.count wf) (fun i ->
         ( Workflow.Records.instance wf i,
           Workflow.Records.node wf i,
           Workflow.Records.value wf i )))

let check_identity_rows wf =
  let bad = ref None in
  for i = 0 to Workflow.Records.count wf - 1 do
    let total =
      Workflow.Records.init_ns wf i
      + Workflow.Records.exec_ns wf i
      + Workflow.Records.preemption_ns wf i
    in
    let width =
      Workflow.Records.completed_ns wf i - Workflow.Records.triggered_ns wf i
    in
    if total <> width && !bad = None then
      bad :=
        Some
          (Printf.sprintf
             "row %d (node %d): completed-triggered = %d but init+exec+preempt \
              = %d"
             i
             (Workflow.Records.node wf i)
             width total)
  done;
  !bad

(* Node-at-a-time sequential execution: each node triggered alone on a
   fresh engine quiescent point, in topological (= index) order.  The
   per-node latency identity must hold for every record. *)
let run_sequential ?(seed = 11) graph =
  let engine = Engine.create ~seed () in
  let cluster =
    Cluster.create ~servers:1 ~topology:small_topology ~seed ~engine ()
  in
  register_palette cluster;
  Array.iter
    (fun (name, _) ->
      Cluster.provision cluster ~name ~total:4 ~strategy:Sandbox.Horse)
    palette;
  let rows = ref [] in
  for i = 0 to Workflow.node_count graph - 1 do
    (match
       Cluster.trigger cluster
         ~name:(Workflow.node_name graph i)
         ~mode:(Workflow.node_mode graph i)
         ~on_complete:(fun (_server, r) -> rows := (i, r) :: !rows)
         ()
     with
    | Cluster.Accepted _ | Cluster.Queued -> ()
    | Cluster.Rejected _ -> Alcotest.fail "sequential trigger rejected");
    Cluster.run cluster
  done;
  List.rev !rows

(* ------------------------------------------------------------------ *)
(* Oracle equivalence over generated DAGs                              *)
(* ------------------------------------------------------------------ *)

let check_against_oracle label wf graph instances =
  if Workflow.instances_completed wf <> instances then
    Some
      (Printf.sprintf "%s: %d of %d instances completed" label
         (Workflow.instances_completed wf)
         instances)
  else begin
    let n = Workflow.node_count graph in
    if Workflow.Records.count wf <> instances * n then
      Some
        (Printf.sprintf "%s: %d records for %d instances x %d nodes" label
           (Workflow.Records.count wf) instances n)
    else begin
      let bad = ref None in
      for inst = 0 to instances - 1 do
        (* the default instance seed is the instance id *)
        let expect = Workflow.oracle_values graph ~seed:inst in
        for v = 0 to n - 1 do
          let got = Workflow.value wf ~instance:inst ~node:v in
          if got <> expect.(v) && !bad = None then
            bad :=
              Some
                (Printf.sprintf "%s: instance %d node %d: value %d, oracle %d"
                   label inst v got expect.(v))
        done
      done;
      match !bad with Some _ as b -> b | None -> check_identity_rows wf
    end
  end

let test_oracle_equivalence () =
  let policies = Cluster.Policy.builtins () in
  Harness.Dag.check ~name:"workflow oracle equivalence" (fun shape ->
      let graph = graph_of_shape shape in
      let instances = 3 in
      (* the sequential oracle run: every node alone, identity held *)
      let seq = run_sequential graph in
      let seq_bad =
        List.find_map
          (fun (i, (r : Platform.record)) ->
            let width = Time.span_to_ns (Time.diff r.completed_at r.triggered_at) in
            let total = Time.span_to_ns (Platform.record_total r) in
            if width <> total then
              Some
                (Printf.sprintf
                   "sequential node %d: completed-triggered %d <> \
                    init+exec+preempt %d"
                   i width total)
            else None)
          seq
      in
      if List.length seq <> Workflow.node_count graph then
        Some "sequential run lost a node"
      else if seq_bad <> None then seq_bad
      else
        List.find_map
          (fun policy ->
            let unfused = run_direct ~policy ~instances graph in
            let fused = run_direct ~fuse:true ~policy ~instances graph in
            match
              check_against_oracle
                ("unfused/" ^ Cluster.Policy.name policy)
                unfused graph instances
            with
            | Some _ as w -> w
            | None -> (
              match
                check_against_oracle
                  ("fused/" ^ Cluster.Policy.name policy)
                  fused graph instances
              with
              | Some _ as w -> w
              | None ->
                if value_map unfused <> value_map fused then
                  Some
                    (Cluster.Policy.name policy
                    ^ ": fused and unfused value maps differ")
                else None))
          policies)

(* The full matrix gate: for each policy, the workflow record stream
   must be byte-identical across shard counts 1/2/4; across policies,
   the (instance, node, value) map must agree with the oracle. *)
let test_shard_policy_identity () =
  let graph =
    graph_of_shape
      {
        Harness.Dag.nodes = 6;
        edges = [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (4, 5) ];
      }
  in
  let instances = 4 in
  List.iter
    (fun fuse ->
      List.iter
        (fun policy ->
          let reference =
            stream (run_sharded ~fuse ~policy ~shards:1 ~instances graph)
          in
          List.iter
            (fun shards ->
              let s =
                stream (run_sharded ~fuse ~policy ~shards ~instances graph)
              in
              Alcotest.(check bool)
                (Printf.sprintf "stream identical at shards=%d (%s, fuse=%b)"
                   shards
                   (Cluster.Policy.name policy)
                   fuse)
                true (s = reference))
            [ 2; 4 ];
          let expect =
            List.sort compare
              (List.concat_map
                 (fun inst ->
                   let values = Workflow.oracle_values graph ~seed:inst in
                   List.init (Workflow.node_count graph) (fun v ->
                       (inst, v, values.(v))))
                 (List.init instances (fun i -> i)))
          in
          let wf = run_sharded ~fuse ~policy ~shards:1 ~instances graph in
          Alcotest.(check bool)
            (Printf.sprintf "values match oracle (%s, fuse=%b)"
               (Cluster.Policy.name policy)
               fuse)
            true
            (value_map wf = expect))
        (Cluster.Policy.builtins ()))
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Fusion planner                                                      *)
(* ------------------------------------------------------------------ *)

let nfv_cluster () =
  let engine = Engine.create ~seed:7 () in
  let cluster =
    Cluster.create ~servers:2 ~topology:small_topology ~seed:7 ~engine ()
  in
  List.iter (Cluster.register cluster) (Workflow.nfv_defs ());
  List.iter (Cluster.register cluster) (Workflow.thumbnail_defs ());
  cluster

let test_planner_fuses_nfv_chain () =
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
  Alcotest.(check int) "one fused unit" 1 (Workflow.unit_count wf ~wf_id:id);
  Alcotest.(check (list (list int)))
    "members" [ [ 0; 1; 2 ] ]
    (Workflow.unit_members wf ~wf_id:id);
  (* the fused function exists on the cluster, uLL, max of members *)
  let fused_id = Cluster.fn_id cluster ~name:"__fused:nfv:0" in
  let def =
    Function_def.Registry.def
      (Platform.registry (Cluster.server cluster 0))
      fused_id
  in
  Alcotest.(check bool) "fused is ull" true def.Function_def.ull;
  Alcotest.(check int) "fused vcpus" 1 def.Function_def.vcpus

let test_planner_leaves_non_ull_alone () =
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let id =
    Workflow.register wf ~name:"thumb" (Workflow.thumbnail_store ())
  in
  Alcotest.(check int) "no fusion" 2 (Workflow.unit_count wf ~wf_id:id);
  Alcotest.(check (list (list int)))
    "members" [ [ 0 ]; [ 1 ] ]
    (Workflow.unit_members wf ~wf_id:id)

let test_planner_mixed_chain () =
  (* ull, ull, thumbnail, ull: only the leading pair fuses *)
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let graph =
    Workflow.chain
      [
        ("nfv-firewall", Platform.Warm Sandbox.Horse);
        ("nfv-nat", Platform.Warm Sandbox.Horse);
        ("thumb-store", Platform.Warm Sandbox.Vanilla);
        ("nfv-filter", Platform.Warm Sandbox.Horse);
      ]
  in
  let id = Workflow.register wf ~name:"mixed" graph in
  Alcotest.(check (list (list int)))
    "fused prefix only"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ] ]
    (Workflow.unit_members wf ~wf_id:id)

let test_planner_respects_branches () =
  (* a diamond of uLL nodes has no interior chain: nothing fuses *)
  let cluster = nfv_cluster () in
  let wf = Workflow.create ~fuse:true ~cluster () in
  let b = Workflow.Builder.create () in
  let mode = Platform.Warm Sandbox.Horse in
  let n0 = Workflow.Builder.add b ~name:"nfv-firewall" ~mode ~deps:[] in
  let n1 = Workflow.Builder.add b ~name:"nfv-nat" ~mode ~deps:[ n0 ] in
  let n2 = Workflow.Builder.add b ~name:"nfv-filter" ~mode ~deps:[ n0 ] in
  let _ = Workflow.Builder.add b ~name:"nfv-nat2" ~mode ~deps:[ n1; n2 ] in
  Cluster.register cluster
    (Function_def.create ~name:"nfv-nat2" ~vcpus:1 ~memory_mb:128
       ~exec:(Function_def.Ull Category.Cat2) ());
  let id = Workflow.register wf ~name:"diamond" (Workflow.Builder.build b) in
  Alcotest.(check int) "four units" 4 (Workflow.unit_count wf ~wf_id:id)

let test_fused_single_resume () =
  (* a fused NFV instance costs one warm trigger; unfused costs three *)
  let count_warm cluster =
    Horse_sim.Metrics.counter
      (Platform.metrics (Cluster.server cluster 0))
      "platform.triggers.warm-horse"
    + Horse_sim.Metrics.counter
        (Platform.metrics (Cluster.server cluster 1))
        "platform.triggers.warm-horse"
  in
  let run fuse =
    let cluster = nfv_cluster () in
    let wf = Workflow.create ~fuse ~cluster () in
    let id = Workflow.register wf ~name:"nfv" (Workflow.nfv_chain ()) in
    Workflow.provision wf ~wf_id:id ~per_unit:4;
    ignore (Workflow.start wf ~wf_id:id ());
    Workflow.run wf;
    Alcotest.(check int) "completed" 1 (Workflow.instances_completed wf);
    (count_warm cluster, wf)
  in
  let fused_triggers, fused = run true in
  let unfused_triggers, unfused = run false in
  Alcotest.(check int) "fused: one resume" 1 fused_triggers;
  Alcotest.(check int) "unfused: three resumes" 3 unfused_triggers;
  Alcotest.(check bool) "same values" true
    (value_map fused = value_map unfused)

(* ------------------------------------------------------------------ *)
(* Stepper timing                                                      *)
(* ------------------------------------------------------------------ *)

let test_chain_latency_identity_direct () =
  let graph = graph_of_shape { Harness.Dag.nodes = 4; edges = [ (0, 1); (1, 2); (2, 3) ] } in
  let wf = run_direct ~instances:1 graph in
  Alcotest.(check int) "records" 4 (Workflow.Records.count wf);
  (match check_identity_rows wf with
  | Some why -> Alcotest.fail why
  | None -> ());
  let row node =
    let rec find i =
      if Workflow.Records.node wf i = node then i else find (i + 1)
    in
    find 0
  in
  (* on a direct cluster the stepper dispatches a successor at the
     very instant its predecessor completes *)
  for v = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "node %d starts when %d completes" (v + 1) v)
      (Workflow.Records.completed_ns wf (row v))
      (Workflow.Records.triggered_ns wf (row (v + 1)))
  done;
  (* the end-to-end latency is the sum of per-node totals along the
     (only) path *)
  let total = ref 0 in
  for i = 0 to 3 do
    total :=
      !total
      + Workflow.Records.init_ns wf i
      + Workflow.Records.exec_ns wf i
      + Workflow.Records.preemption_ns wf i
  done;
  Alcotest.(check int) "critical path sums"
    (Workflow.Records.completed_ns wf (row 3)
    - Workflow.Records.triggered_ns wf (row 0))
    !total

let test_chain_hops_sharded () =
  (* on a sharded cluster every inter-node step pays exactly one
     completion notification plus one placement: 2 x placement *)
  let placement = Time.span_us 50.0 in
  let graph = graph_of_shape { Harness.Dag.nodes = 3; edges = [ (0, 1); (1, 2) ] } in
  let wf = run_sharded ~instances:1 ~placement graph in
  Alcotest.(check int) "records" 3 (Workflow.Records.count wf);
  let row node =
    let rec find i =
      if Workflow.Records.node wf i = node then i else find (i + 1)
    in
    find 0
  in
  let hop = 2 * Time.span_to_ns placement in
  for v = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "hop %d->%d is 2x placement" v (v + 1))
      (Workflow.Records.completed_ns wf (row v) + hop)
      (Workflow.Records.triggered_ns wf (row (v + 1)))
  done

(* ------------------------------------------------------------------ *)
(* Failure semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_rejected_unit_fails_instance () =
  let engine = Engine.create ~seed:3 () in
  let cluster =
    Cluster.create ~servers:1 ~topology:small_topology ~seed:3 ~engine ()
  in
  register_palette cluster;
  let wf = Workflow.create ~cluster () in
  let graph = graph_of_shape { Harness.Dag.nodes = 2; edges = [ (0, 1) ] } in
  let id = Workflow.register wf ~name:"g" graph in
  (* no pools provisioned: the first warm dispatch is rejected dry *)
  ignore (Workflow.start wf ~wf_id:id ());
  Workflow.run wf;
  Alcotest.(check int) "failed" 1 (Workflow.instances_failed wf);
  Alcotest.(check int) "not completed" 0 (Workflow.instances_completed wf);
  Alcotest.(check int) "no records" 0 (Workflow.Records.count wf)

(* ------------------------------------------------------------------ *)
(* Batch ingestion                                                     *)
(* ------------------------------------------------------------------ *)

let batch_graph =
  graph_of_shape { Harness.Dag.nodes = 3; edges = [ (0, 1); (1, 2) ] }

let batch_manager ?shards () =
  let cluster =
    match shards with
    | None ->
      let engine = Engine.create ~seed:5 () in
      Cluster.create ~servers:2 ~topology:small_topology ~seed:5 ~engine ()
    | Some shards ->
      Cluster.create_sharded ~servers:2 ~topology:small_topology ~seed:5
        ~shards ()
  in
  register_palette cluster;
  let wf = Workflow.create ~cluster () in
  let id = Workflow.register wf ~name:"g" batch_graph in
  Workflow.provision wf ~wf_id:id ~per_unit:8;
  (wf, id)

let stamped_batch wf_id =
  let b = Batch.create () in
  List.iter
    (fun us -> Batch.add b ~at:(Time.span_us us) ~fn_id:wf_id ~payload:0)
    [ 5.0; 1.0; 9.0; 1.0 ];
  Batch.sort b;
  (* stamp explicit instance seeds onto rows 0 and 2 *)
  Batch.stamp_payloads b (fun i -> if i mod 2 = 0 then 100 + i else 0);
  b

let run_batch ?shards () =
  let wf, id = batch_manager ?shards () in
  Workflow.schedule_batch ~window:2 wf (stamped_batch id);
  Workflow.run wf;
  wf

let test_schedule_batch_deterministic () =
  let a = run_batch () in
  let b = run_batch () in
  Alcotest.(check int) "all started" 4 (Workflow.instances_started a);
  Alcotest.(check int) "all completed" 4 (Workflow.instances_completed a);
  Alcotest.(check bool) "two ingestions identical" true (stream a = stream b);
  (* stamped seeds are honoured: arrival row 0 became instance 0 with
     seed 100, row 2 instance 2 with seed 102; unstamped rows default
     to their instance id *)
  List.iteri
    (fun inst seed ->
      let expect = Workflow.oracle_values batch_graph ~seed in
      for v = 0 to 2 do
        Alcotest.(check int)
          (Printf.sprintf "instance %d node %d" inst v)
          expect.(v)
          (Workflow.value a ~instance:inst ~node:v)
      done)
    [ 100; 1; 102; 3 ]

let test_schedule_batch_sharded () =
  (* the same windowed ingestion on a sharded cluster: every row starts
     and completes, the latency identity holds, and the stream is
     bit-identical across execution shards *)
  let reference = run_batch ~shards:1 () in
  Alcotest.(check int) "sharded: all started" 4
    (Workflow.instances_started reference);
  Alcotest.(check int) "sharded: all completed" 4
    (Workflow.instances_completed reference);
  (match check_identity_rows reference with
  | Some why -> Alcotest.fail why
  | None -> ());
  List.iter
    (fun shards ->
      Alcotest.(check bool)
        (Printf.sprintf "sharded batch stream identical at shards=%d" shards)
        true
        (stream (run_batch ~shards ()) = stream reference))
    [ 2; 4 ]

let test_schedule_batch_validates () =
  let engine = Engine.create ~seed:5 () in
  let cluster =
    Cluster.create ~servers:1 ~topology:small_topology ~seed:5 ~engine ()
  in
  register_palette cluster;
  let wf = Workflow.create ~cluster () in
  let b = Batch.create () in
  Batch.add b ~at:(Time.span_us 1.0) ~fn_id:9 ~payload:0;
  Alcotest.check_raises "unknown wf id"
    (Invalid_argument "Workflow.schedule_batch: unknown workflow id 9")
    (fun () -> Workflow.schedule_batch wf b)

(* ------------------------------------------------------------------ *)
(* Builder validation                                                  *)
(* ------------------------------------------------------------------ *)

let test_builder_validation () =
  let b = Workflow.Builder.create () in
  Alcotest.check_raises "forward dep"
    (Invalid_argument "Workflow.Builder.add: dep 0 of node 0") (fun () ->
      ignore
        (Workflow.Builder.add b ~name:"x" ~mode:Platform.Cold ~deps:[ 0 ]));
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Workflow.Builder.build: empty graph") (fun () ->
      ignore (Workflow.Builder.build (Workflow.Builder.create ())))

let () =
  Alcotest.run "horse_workflow_dag"
    [
      ( "oracle",
        [
          Alcotest.test_case "generated DAGs: fused = unfused = sequential"
            `Quick test_oracle_equivalence;
          Alcotest.test_case "shards x policies identity" `Quick
            test_shard_policy_identity;
        ] );
      ( "planner",
        [
          Alcotest.test_case "NFV chain fuses to one unit" `Quick
            test_planner_fuses_nfv_chain;
          Alcotest.test_case "non-uLL chain untouched" `Quick
            test_planner_leaves_non_ull_alone;
          Alcotest.test_case "mixed chain fuses prefix only" `Quick
            test_planner_mixed_chain;
          Alcotest.test_case "diamond stays unfused" `Quick
            test_planner_respects_branches;
          Alcotest.test_case "fused segment resumes once" `Quick
            test_fused_single_resume;
        ] );
      ( "stepper",
        [
          Alcotest.test_case "chain latency identity (direct)" `Quick
            test_chain_latency_identity_direct;
          Alcotest.test_case "chain hops are 2x placement (sharded)" `Quick
            test_chain_hops_sharded;
          Alcotest.test_case "rejected dispatch fails the instance" `Quick
            test_rejected_unit_fails_instance;
        ] );
      ( "ingestion",
        [
          Alcotest.test_case "batch starts: deterministic + stamped seeds"
            `Quick test_schedule_batch_deterministic;
          Alcotest.test_case "batch validates workflow ids" `Quick
            test_schedule_batch_validates;
        ] );
      ( "shard ingest",
        [
          Alcotest.test_case "windowed batch is shard-invariant"
            `Quick test_schedule_batch_sharded;
        ] );
      ( "builder",
        [ Alcotest.test_case "validation" `Quick test_builder_validation ] );
    ]
