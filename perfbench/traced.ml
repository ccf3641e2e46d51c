(* The traced run: per-layer numbers from outside the library.

   Spans are recorded in the benchmark's own code, around the public
   calls into each layer; nothing inside lib/ is instrumented.  The
   run phase simulates the same clusters as an untraced cycle (every
   replica), driven through lower public entry points so each layer
   can be timed:

   - warm-storm (the direct single-engine path): [Engine.step] in a
     loop.  Each step is classified by the public counters it moved:
     a record appended is a completion, a live invocation or rejection
     added is an arrival, anything else is other.
   - sharded workloads: [Shard_engine.run ~shards ~executor], the call
     [Cluster.run] makes, with an executor that times every strand.  A
     shards=1 workload runs at width 2 inline, so source 0 (the router)
     is its own strand.  Rounds with a single active strand bypass the
     executor; the wall time between fan-outs ("gaps") goes to the
     coordinator when no source fired in it, and is otherwise split
     between router and servers by their events in the gap times their
     per-event cost measured inside fan-outs (an estimate).

   Layer probes time [Vmm.resume], [Vmm.pause] and [Runqueue] mutations
   directly on a server built like the workload's.  Every self time,
   the tracing's own bookkeeping included, lands in one layer of the
   ledger; [tracing.closure_err] is how far the ledger's sum misses the
   run phase's wall time (tolerance 0.05).  The spans (name, start,
   end, parent) are kept in memory and written as JSON at exit. *)

module W = Workload
module Engine = Horse_sim.Engine
module Shard_engine = Horse_sim.Shard_engine
module Metrics = Horse_sim.Metrics
module Rng = Horse_sim.Rng
module Team = Horse_parallel.Team
module Cluster = Horse_faas.Cluster
module Platform = Horse_faas.Platform
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Vcpu = Horse_sched.Vcpu
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm

let closure_tolerance = 0.05

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { id : int; name : string; parent : int; start : int; stop : int }

let spans : span list ref = ref []
let next_id = ref 0
let open_stack = ref [ -1 ]

let enter () =
  incr next_id;
  let id = !next_id in
  let parent = List.hd !open_stack in
  open_stack := id :: !open_stack;
  (id, parent)

let leave () = open_stack := List.tl !open_stack

let add_span ?(parent = List.hd !open_stack) name start stop =
  incr next_id;
  spans := { id = !next_id; name; parent; start; stop } :: !spans

let with_span name f =
  let id, parent = enter () in
  let start = Clock.now_ns () in
  let x = Fun.protect ~finally:leave f in
  spans := { id; name; parent; start; stop = Clock.now_ns () } :: !spans;
  x

let write_spans path =
  let oc = open_out path in
  output_string oc "{\"spans\": [\n";
  List.iteri
    (fun k s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"name\": %S, \"parent\": %d, \"start_ns\": %d, \
         \"end_ns\": %d}"
        (if k = 0 then "" else ",\n")
        s.id s.name s.parent s.start s.stop)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* A growable int vector for per-event samples. *)
type vec = { mutable data : int array; mutable len : int }

let vec n = { data = Array.make (max 16 n) 0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pct v p =
  if v.len = 0 then 0.0
  else begin
    let a = Array.sub v.data 0 v.len in
    Array.sort compare a;
    let k = int_of_float (Float.round (p /. 100.0 *. float_of_int (v.len - 1))) in
    float_of_int a.(k)
  end

(* ------------------------------------------------------------------ *)
(* Run-phase accumulators, summed over a cycle's replicas              *)
(* ------------------------------------------------------------------ *)

type state = {
  ledger : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  width : int;  (** strands of the traced shard-engine runs *)
  (* the direct engine path *)
  arrival_ns : vec;
  completion_ns : vec;
  class_words : float array;  (** arrival, completion, other *)
  mutable other_ns : int;
  (* the shard engine *)
  busy : int array;  (** per strand, inside fan-outs *)
  mutable fanouts : int;
  mutable fanout_wall : int;
  round_events : vec;
  round_active : vec;
  mutable coordinator : int;
  mutable router_gap : float;  (** ns *)
  mutable barrier_wait : int;
  mutable rounds : int;
  mutable epochs : int;
  mutable messages : int;
  mutable drained : int array;  (** events per source *)
  mutable events_fired : int;
}

let state ~width ~arrivals =
  {
    ledger = Hashtbl.create 16;
    width;
    arrival_ns = vec arrivals;
    completion_ns = vec arrivals;
    class_words = Array.make 3 0.0;
    other_ns = 0;
    busy = Array.make width 0;
    fanouts = 0;
    fanout_wall = 0;
    round_events = vec 1024;
    round_active = vec 1024;
    coordinator = 0;
    router_gap = 0.0;
    barrier_wait = 0;
    rounds = 0;
    epochs = 0;
    messages = 0;
    drained = [||];
    events_fired = 0;
  }

let charge st layer s =
  Hashtbl.replace st.ledger layer
    (s +. Option.value ~default:0.0 (Hashtbl.find_opt st.ledger layer))

(* ------------------------------------------------------------------ *)
(* Run phase: the direct engine path                                   *)
(* ------------------------------------------------------------------ *)

let steps_between_polls = 4096

let run_direct st events (inst : W.t) =
  let c = inst.W.cluster in
  let engine = Cluster.engine c in
  let rejected =
    List.map
      (fun r -> Metrics.counter_ref (Cluster.metrics c) r)
      [ "cluster.rejections.all-servers-down"; "cluster.rejections.no-warm-capacity" ]
  in
  let rejections () = List.fold_left (fun acc r -> acc + !r) 0 rejected in
  let words = st.class_words in
  let arrivals0 = st.arrival_ns.len and completions0 = st.completion_ns.len in
  let other0 = st.other_ns in
  let steps = ref 0 and bookkeeping = ref 0 in
  with_span "engine.steps" (fun () ->
      let continue = ref true and last = ref (Clock.now_ns ()) in
      while !continue do
        let records = Cluster.record_count c in
        let live = Cluster.live_invocations c and rej = rejections () in
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        bookkeeping := !bookkeeping + (t0 - !last);
        continue := Engine.step engine;
        let t1 = Clock.now_ns () in
        last := t1;
        let dw = Gc.minor_words () -. w0 in
        let dt = t1 - t0 in
        if Cluster.record_count c > records then begin
          push st.completion_ns dt;
          words.(1) <- words.(1) +. dw
        end
        else if Cluster.live_invocations c > live || rejections () > rej then begin
          push st.arrival_ns dt;
          words.(0) <- words.(0) +. dw
        end
        else begin
          st.other_ns <- st.other_ns + dt;
          words.(2) <- words.(2) +. dw
        end;
        incr steps;
        if !steps mod steps_between_polls = 0 then Gc_meter.poll events
      done);
  let total v from =
    let s = ref 0 in
    for k = from to v.len - 1 do
      s := !s + v.data.(k)
    done;
    !s
  in
  charge st "engine.arrival" (Clock.seconds (total st.arrival_ns arrivals0));
  charge st "engine.completion" (Clock.seconds (total st.completion_ns completions0));
  charge st "engine.other" (Clock.seconds (st.other_ns - other0));
  charge st "tracing.self" (Clock.seconds !bookkeeping);
  st.events_fired <- st.events_fired + Engine.events_fired engine

let direct_metrics st =
  let per v w = if v.len = 0 then 0.0 else w /. float_of_int v.len in
  [
    ("engine.arrival_ns_p50", pct st.arrival_ns 50.0, "ns");
    ("engine.arrival_ns_p99", pct st.arrival_ns 99.0, "ns");
    ("engine.arrival_words", per st.arrival_ns st.class_words.(0), "words");
    ("engine.completion_ns_p50", pct st.completion_ns 50.0, "ns");
    ("engine.completion_ns_p99", pct st.completion_ns 99.0, "ns");
    ("engine.completion_words", per st.completion_ns st.class_words.(1), "words");
    ("engine.other_s", Clock.seconds st.other_ns, "s");
  ]

(* ------------------------------------------------------------------ *)
(* Run phase: the shard engine                                         *)
(* ------------------------------------------------------------------ *)

let run_sharded st events (inst : W.t) se =
  let spec = inst.W.spec in
  let team =
    if spec.W.shards > 1 then Some (Team.shared ~width:spec.W.shards) else None
  in
  let width = st.width and busy = st.busy in
  let sources = Shard_engine.sources se in
  let fired () =
    Array.init sources (fun i -> Engine.events_fired (Shard_engine.engine se i))
  in
  let busy0 = Array.copy busy in
  let barrier0 = match team with Some t -> Team.barrier_wait_ns t | None -> 0 in
  let last_exit = ref (Clock.now_ns ()) and last_fired = ref (fired ()) in
  let bookkeeping = ref 0 and gaps = vec 1024 in
  (* router and server events fired inside fan-outs, for the cost split *)
  let fanout_router_events = ref 0 and fanout_server_events = ref 0 in
  (* the wall time since the previous fan-out: with no events it is the
     coordinator's; otherwise it is kept (time, router events, server
     events) and split once per-event costs are known *)
  let gap now counts =
    let dt = now - !last_exit in
    let router = counts.(0) - !last_fired.(0) in
    let servers = ref 0 in
    for i = 1 to sources - 1 do
      servers := !servers + (counts.(i) - !last_fired.(i))
    done;
    if router = 0 && !servers = 0 then begin
      st.coordinator <- st.coordinator + dt;
      charge st "gap.coordinator" (Clock.seconds dt);
      add_span "gap.coordinator" !last_exit now
    end
    else begin
      push gaps dt;
      push gaps router;
      push gaps !servers;
      add_span "gap.solo" !last_exit now
    end
  in
  let executor job =
    let e0 = Clock.now_ns () in
    let counts = fired () in
    gap e0 counts;
    let t0 = Clock.now_ns () in
    let strand_start = Array.make width 0 in
    let timed w =
      let s = Clock.now_ns () in
      strand_start.(w) <- s;
      job w;
      busy.(w) <- busy.(w) + (Clock.now_ns () - s)
    in
    let before = Array.copy busy in
    (match team with
    | Some t -> Team.run t timed
    | None ->
      for w = 0 to width - 1 do
        timed w
      done);
    let t1 = Clock.now_ns () in
    add_span "round" t0 t1;
    let round_id = !next_id in
    for w = 0 to width - 1 do
      let b = busy.(w) - before.(w) in
      if b > 0 then
        add_span ~parent:round_id
          (Printf.sprintf "strand.%d" w)
          strand_start.(w) (strand_start.(w) + b)
    done;
    let after = fired () in
    let evs = ref 0 and active = ref 0 in
    for i = 0 to sources - 1 do
      let d = after.(i) - counts.(i) in
      evs := !evs + d;
      if i = 0 then fanout_router_events := !fanout_router_events + d
      else fanout_server_events := !fanout_server_events + d;
      if d > 0 then incr active
    done;
    push st.round_events !evs;
    push st.round_active !active;
    st.fanouts <- st.fanouts + 1;
    st.fanout_wall <- st.fanout_wall + (t1 - t0);
    (* the caller runs strand 0 (and, inline, every strand); on a team
       the rest of the fan-out is the wait for the other domains *)
    (match team with
    | Some _ ->
      let b0 = busy.(0) - before.(0) in
      charge st "strand.0" (Clock.seconds b0);
      charge st "team.barrier" (Clock.seconds (t1 - t0 - b0))
    | None ->
      let sum = ref 0 in
      for w = 0 to width - 1 do
        let b = busy.(w) - before.(w) in
        sum := !sum + b;
        charge st (Printf.sprintf "strand.%d" w) (Clock.seconds b)
      done;
      charge st "team.inline_overhead" (Clock.seconds (t1 - t0 - !sum)));
    last_fired := after;
    Gc_meter.poll events;
    let e1 = Clock.now_ns () in
    bookkeeping := !bookkeeping + (t0 - e0) + (e1 - t1);
    last_exit := e1
  in
  with_span "shard_engine.run" (fun () ->
      Shard_engine.run ~shards:width ~executor se;
      gap (Clock.now_ns ()) (fired ()));
  (* split each gap between router and servers by their per-event cost
     as measured inside this run's fan-outs (strand 0 is the router) *)
  let per_event busy_ns events =
    if events = 0 then 1.0 else float_of_int busy_ns /. float_of_int events
  in
  let router_busy = busy.(0) - busy0.(0) in
  let server_busy = Array.fold_left ( + ) 0 busy - Array.fold_left ( + ) 0 busy0 - router_busy in
  let router_cost = per_event router_busy !fanout_router_events in
  let server_cost = per_event server_busy !fanout_server_events in
  for k = 0 to (gaps.len / 3) - 1 do
    let dt = float_of_int gaps.data.(3 * k) in
    let r = router_cost *. float_of_int gaps.data.((3 * k) + 1) in
    let s = server_cost *. float_of_int gaps.data.((3 * k) + 2) in
    let share = r /. (r +. s) in
    st.router_gap <- st.router_gap +. (dt *. share);
    charge st "gap.router" (dt *. share /. 1e9);
    charge st "gap.servers" (dt *. (1.0 -. share) /. 1e9)
  done;
  charge st "tracing.self" (Clock.seconds !bookkeeping);
  let drained = Shard_engine.events_drained se in
  if st.drained = [||] then st.drained <- Array.make (Array.length drained) 0;
  Array.iteri (fun i n -> st.drained.(i) <- st.drained.(i) + n) drained;
  st.events_fired <- st.events_fired + Array.fold_left ( + ) 0 drained;
  st.rounds <- st.rounds + Shard_engine.rounds se;
  st.epochs <- st.epochs + Shard_engine.epochs se;
  st.messages <- st.messages + Shard_engine.messages_delivered se;
  st.barrier_wait <-
    st.barrier_wait
    + (match team with Some t -> Team.barrier_wait_ns t - barrier0 | None -> 0)

(* Router busy time: strand 0 inside fan-outs plus its share of gaps. *)
let router_busy_s st = Clock.seconds st.busy.(0) +. (st.router_gap /. 1e9)

let sharded_metrics st =
  let servers = Array.length st.drained - 1 in
  let server_max = ref 0 and server_sum = ref 0 in
  for i = 1 to servers do
    server_max := max !server_max st.drained.(i);
    server_sum := !server_sum + st.drained.(i)
  done;
  let server_mean = float_of_int !server_sum /. float_of_int (max 1 servers) in
  let busy_sum = Array.fold_left ( + ) 0 st.busy in
  [
    ("shard_engine.rounds", float_of_int st.rounds, "count");
    ("shard_engine.epochs", float_of_int st.epochs, "count");
    ("shard_engine.messages", float_of_int st.messages, "count");
    ("shard_engine.coordinator_s", Clock.seconds st.coordinator, "s");
    ("shard_engine.events_per_round_p50", pct st.round_events 50.0, "count");
    ("shard_engine.events_per_round_p99", pct st.round_events 99.0, "count");
    ("shard_engine.active_sources_per_round_p50", pct st.round_active 50.0, "count");
    ( "shard_engine.server_skew",
      (if server_mean > 0.0 then float_of_int !server_max /. server_mean else 0.0),
      "ratio" );
    ("team.fanouts", float_of_int st.fanouts, "count");
    ("team.barrier_wait_s", Clock.seconds st.barrier_wait, "s");
    ("team.strand_busy_s.0", Clock.seconds st.busy.(0), "s");
    ("team.strand_busy_s.1", Clock.seconds st.busy.(1), "s");
    ( "team.balance",
      (if st.fanout_wall > 0 then
         float_of_int busy_sum /. float_of_int (st.width * st.fanout_wall)
       else 0.0),
      "ratio" );
  ]

(* ------------------------------------------------------------------ *)
(* Layer probes: vmm pause/resume and run-queue mutations              *)
(* ------------------------------------------------------------------ *)

let probe_seconds = 0.25

(* A server built like the workload's: same topology and ull_count,
   the same parked count per ull queue. *)
let probe_layers (spec : W.spec) =
  let scheduler = Scheduler.create ~ull_count:spec.W.ull_count ~topology:Topology.r650_smt () in
  let vmm =
    Vmm.create ~cost:Cost_model.firecracker ~seed:(W.derived spec 4) ~scheduler
      ~metrics:(Metrics.create ()) ()
  in
  let units = match spec.W.kind with W.Nfv_chain -> 3 | _ -> 1 in
  let parked = max 1 (spec.W.parked * units / spec.W.servers) in
  let sandboxes =
    Array.init parked (fun i -> Sandbox.create ~id:(i + 1) ~vcpus:2 ~memory_mb:512 ~ull:true ())
  in
  Array.iter
    (fun sb ->
      ignore (Vmm.boot vmm sb);
      ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb))
    sandboxes;
  let resume_ns = ref 0 and pause_ns = ref 0 and n = ref 0 in
  let resume_words = ref 0.0 and pause_words = ref 0.0 in
  let deadline = Clock.now_ns () + int_of_float (probe_seconds *. 1e9) in
  while Clock.now_ns () < deadline do
    let sb = sandboxes.(!n mod parked) in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    ignore (Vmm.resume vmm sb);
    let t1 = Clock.now_ns () in
    let w1 = Gc.minor_words () in
    ignore (Vmm.pause vmm ~strategy:Sandbox.Horse sb);
    let t2 = Clock.now_ns () in
    let w2 = Gc.minor_words () in
    resume_ns := !resume_ns + (t1 - t0);
    pause_ns := !pause_ns + (t2 - t1);
    resume_words := !resume_words +. (w1 -. w0);
    pause_words := !pause_words +. (w2 -. w1);
    incr n
  done;
  (* run-queue churn on a ull queue carrying its paused subscribers *)
  let queue = List.hd (Scheduler.ull_runqueues scheduler) in
  let rng = Rng.create ~seed:(W.derived spec 5) in
  let batch = 64 in
  let probes =
    Array.init batch (fun i -> Vcpu.create ~sandbox:(-1) ~index:i ~credit:(Rng.int rng 1_000_000) ())
  in
  let nodes = Array.make batch Horse_psm.Arena_list.nil in
  let mutations = ref 0 and mutation_ns = ref 0 and mutation_words = ref 0.0 in
  let deadline = Clock.now_ns () + int_of_float (probe_seconds *. 1e9) in
  while Clock.now_ns () < deadline do
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    for i = 0 to batch - 1 do
      nodes.(i) <- fst (Runqueue.enqueue queue probes.(i))
    done;
    for i = 0 to batch - 1 do
      ignore (Runqueue.dequeue queue nodes.(i))
    done;
    mutation_ns := !mutation_ns + (Clock.now_ns () - t0);
    mutation_words := !mutation_words +. (Gc.minor_words () -. w0);
    mutations := !mutations + (2 * batch)
  done;
  let per total count = total /. float_of_int (max 1 count) in
  [
    ("vmm.resume_ns", per (float_of_int !resume_ns) !n, "ns");
    ("vmm.resume_words", per !resume_words !n, "words");
    ("vmm.pause_ns", per (float_of_int !pause_ns) !n, "ns");
    ("vmm.pause_words", per !pause_words !n, "words");
    ("runqueue.mutation_ns", per (float_of_int !mutation_ns) !mutations, "ns");
    ("runqueue.mutation_words", per !mutation_words !mutations, "words");
  ]

(* ------------------------------------------------------------------ *)
(* The report                                                          *)
(* ------------------------------------------------------------------ *)

let untraced_repeats = 3

let zero names = List.map (fun (n, u) -> (n, 0.0, u)) names

let platform_triggers p =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"platform.triggers." name then acc + v else acc)
    0
    (Metrics.counters (Platform.metrics p))

let report (spec : W.spec) ~spans:spans_path ~untraced =
  (* the untraced reference: the median run wall of a few cycles,
     host-speed normalized like the traced run's (see calibrate.ml) *)
  let reference = List.init untraced_repeats (fun _ -> untraced ()) in
  let normalized ~run_ns ~kernel_ns =
    float_of_int run_ns *. Calibrate.speed ~kernel_ns
  in
  let ref_run_ns =
    let a =
      Array.of_list
        (List.map
           (fun c -> normalized ~run_ns:c.Cycle.run_ns ~kernel_ns:c.Cycle.kernel_ns)
           reference)
    in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let ref_digests = Cycle.digests (List.hd reference) in
  Gc.compact ();
  let events = Gc_meter.create () in
  (* set-up, one span per phase, words per phase on the calling domain;
     phases add up over the cycle's replicas *)
  let phase_s = Hashtbl.create 8 and phase_words = Hashtbl.create 8 in
  let add tbl name x =
    Hashtbl.replace tbl name (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))
  in
  let phase =
    {
      W.phase =
        (fun name f ->
          let w0 = Gc.minor_words () and t0 = Clock.now_ns () in
          let x = with_span name f in
          add phase_s name (Clock.seconds (Clock.now_ns () - t0));
          add phase_words name (Gc.minor_words () -. w0);
          x);
    }
  in
  let insts =
    with_span "setup" (fun () ->
        Array.init spec.W.replicas (fun r -> W.setup phase (W.replica spec r)))
  in
  let heap_setup_mb = Gc_meter.heap_mb () in
  let arrivals = Cycle.arrivals spec in
  let st = state ~width:(max 2 spec.W.shards) ~arrivals in
  let g0 = Gc_meter.sample events in
  let k0 = Calibrate.kernel_ns () in
  let t0 = Clock.now_ns () in
  let run_id, _ = enter () in
  let aggregate_ns = ref 0 in
  let results =
    Array.map
      (fun inst ->
        (match Cluster.shard_engine inst.W.cluster with
        | None -> run_direct st events inst
        | Some se -> run_sharded st events inst se);
        let a0 = Clock.now_ns () in
        let r = with_span "records.aggregate" (fun () -> W.read_results inst) in
        aggregate_ns := !aggregate_ns + (Clock.now_ns () - a0);
        r)
      insts
  in
  let t1 = Clock.now_ns () in
  leave ();
  spans := { id = run_id; name = "run"; parent = -1; start = t0; stop = t1 } :: !spans;
  charge st "records.aggregate" (Clock.seconds !aggregate_ns);
  let k1 = Calibrate.kernel_ns () in
  let g = Gc_meter.diff g0 (Gc_meter.sample events) in
  let run_s = Clock.seconds (t1 - t0) in
  let ledger_s = Hashtbl.fold (fun _ s acc -> acc +. s) st.ledger 0.0 in
  let closure_err = Float.abs (ledger_s -. run_s) /. run_s in
  let checked = Array.map2 W.check insts results in
  let probes = probe_layers spec in
  let per_arrival x = float_of_int x /. float_of_int arrivals in
  let sum f = Array.fold_left (fun acc x -> acc + f x) 0 in
  let workflow_metrics =
    match insts.(0).W.workflow with
    | None -> zero [ ("workflow.dispatches_per_instance", "count"); ("workflow.instances_failed", "count") ]
    | Some _ ->
      [
        ( "workflow.dispatches_per_instance",
          per_arrival (sum (fun i -> W.sum_servers i.W.cluster platform_triggers) insts),
          "count" );
        ("workflow.instances_failed", float_of_int (sum (fun r -> r.W.rejected) results), "count");
      ]
  in
  let phase_metric name = Option.value ~default:0.0 (Hashtbl.find_opt phase_s name) in
  let units = match spec.W.kind with W.Nfv_chain -> 3 | _ -> 1 in
  let direct = Cluster.shard_engine insts.(0).W.cluster = None in
  let engine_metrics =
    if direct then direct_metrics st
    else
      zero
        [
          ("engine.arrival_ns_p50", "ns"); ("engine.arrival_ns_p99", "ns");
          ("engine.arrival_words", "words"); ("engine.completion_ns_p50", "ns");
          ("engine.completion_ns_p99", "ns"); ("engine.completion_words", "words");
          ("engine.other_s", "s");
        ]
  in
  let shard_metrics =
    if not direct then sharded_metrics st
    else
      zero
        [
          ("shard_engine.rounds", "count"); ("shard_engine.epochs", "count");
          ("shard_engine.messages", "count"); ("shard_engine.coordinator_s", "s");
          ("shard_engine.events_per_round_p50", "count");
          ("shard_engine.events_per_round_p99", "count");
          ("shard_engine.active_sources_per_round_p50", "count");
          ("shard_engine.server_skew", "ratio"); ("team.fanouts", "count");
          ("team.barrier_wait_s", "s"); ("team.strand_busy_s.0", "s");
          ("team.strand_busy_s.1", "s"); ("team.balance", "ratio");
        ]
  in
  let router_busy = if direct then 0.0 else router_busy_s st in
  let digest =
    Array.fold_left (fun h k -> W.mix h k.W.digest) 0 checked land ((1 lsl 52) - 1)
  in
  let r0 = results.(0) in
  let metrics =
    [
      ("ingest.batch_s", phase_metric "ingest.batch", "s");
      ("ingest.schedule_s", phase_metric "ingest.schedule", "s");
      ("cluster.create_s", phase_metric "cluster.create", "s");
      ("cluster.provision_s", phase_metric "cluster.provision", "s");
      ( "cluster.provision_words_per_sandbox",
        Option.value ~default:0.0 (Hashtbl.find_opt phase_words "cluster.provision")
        /. float_of_int (spec.W.parked * units * spec.W.replicas),
        "words" );
      ("heap.setup_mb", heap_setup_mb, "MB");
      ("engine.events_per_trigger", per_arrival st.events_fired, "count");
    ]
    @ engine_metrics @ probes @ shard_metrics
    @ [
        ("router.busy_s", router_busy, "s");
        ("router.share", router_busy /. run_s, "ratio");
      ]
    @ workflow_metrics
    @ [
        ("records.aggregate_s", Clock.seconds !aggregate_ns, "s");
        ("gc.minor_collections", float_of_int g.Gc_meter.minor_collections, "count");
        ("gc.major_cycles", float_of_int g.Gc_meter.major_cycles, "count");
        ("gc.promoted_words_per_trigger", per_arrival g.Gc_meter.promoted_words, "words");
        ("gc.pause_s", Clock.seconds g.Gc_meter.pause_ns, "s");
        ("model.completed", float_of_int (sum (fun r -> r.W.completed) results), "count");
        ("model.rejected", float_of_int (sum (fun r -> r.W.rejected) results), "count");
        ("model.pending", float_of_int (sum (fun r -> r.W.pending) results), "count");
        ("model.lost", float_of_int (sum (fun k -> k.W.lost) checked), "count");
        (* simulated percentiles of replica 0 (the workload seed itself) *)
        ("model.sim_p50_us", r0.W.p50_us, "us");
        ("model.sim_p99_us", r0.W.p99_us, "us");
        ("model.sim_p999_us", r0.W.p999_us, "us");
        ("model.digest", float_of_int digest, "digest");
        ( "tracing.overhead_frac",
          (normalized ~run_ns:(t1 - t0) ~kernel_ns:((k0 + k1) / 2) /. ref_run_ns)
          -. 1.0,
          "ratio" );
        ("tracing.closure_err", closure_err, "ratio");
      ]
  in
  (match spans_path with Some p -> write_spans p | None -> ());
  let same_digest = Array.map (fun k -> k.W.digest) checked = ref_digests in
  if not same_digest then prerr_endline "horse_perf: traced digest differs from untraced";
  if closure_err > closure_tolerance then
    Printf.eprintf "horse_perf: layer ledger misses the run wall by %.3f (tolerance %.2f)\n"
      closure_err closure_tolerance;
  if Gc_meter.lost_events events > 0 then
    Printf.eprintf "horse_perf: %d runtime events lost; gc.* undercount\n"
      (Gc_meter.lost_events events);
  let ledger_line =
    String.concat ", "
      (Hashtbl.fold (fun k s acc -> Printf.sprintf "%S: %.6f" k s :: acc) st.ledger [])
  in
  Printf.printf "# ledger {%s} run_s %.6f\n" ledger_line run_s;
  let violations =
    sum (fun k -> k.W.violations) checked
    + List.fold_left (fun acc c -> acc + Cycle.violations c) 0 reference
  in
  let all_same =
    List.for_all (fun c -> Cycle.digests c = ref_digests) reference
  in
  Output.result
    ~meta:
      (Output.meta spec
         ~run_ns:(List.map (fun c -> c.Cycle.run_ns) reference @ [ t1 - t0 ])
         ~kernel_ns:(List.map (fun c -> c.Cycle.kernel_ns) reference @ [ (k0 + k1) / 2 ]))
    ~correct:(violations = 0 && same_digest && all_same)
    ~attempted:(arrivals * (untraced_repeats + 1))
    ~failed:violations metrics
