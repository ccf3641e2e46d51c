module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Rng = Horse_sim.Rng
module Metrics = Horse_sim.Metrics
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Runqueue = Horse_sched.Runqueue
module Sandbox = Horse_vmm.Sandbox
module Vmm = Horse_vmm.Vmm
module Fault = Horse_fault.Fault

let log_src = Horse_sim.Logging.src "platform"

module Log = (val Logs.src_log log_src : Logs.LOG)

type start_mode = Cold | Restore | Warm of Sandbox.strategy

let mode_name = function
  | Cold -> "cold"
  | Restore -> "restore"
  | Warm strategy -> "warm-" ^ Sandbox.strategy_name strategy

(* Dense start-mode codes for the trigger-record arena's mode column
   and the per-mode metric-handle arrays. *)
let mode_count = 6

let mode_code = function
  | Cold -> 0
  | Restore -> 1
  | Warm Sandbox.Vanilla -> 2
  | Warm Sandbox.Ppsm -> 3
  | Warm Sandbox.Coal -> 4
  | Warm Sandbox.Horse -> 5

(* decode through a preallocated table so iterating the arena never
   allocates a [Warm _] block *)
let mode_table =
  [|
    Cold;
    Restore;
    Warm Sandbox.Vanilla;
    Warm Sandbox.Ppsm;
    Warm Sandbox.Coal;
    Warm Sandbox.Horse;
  |]

let mode_of_code i =
  if i < 0 || i >= mode_count then invalid_arg "Platform.mode_of_code";
  mode_table.(i)

type record = {
  function_name : string;
  mode : start_mode;
  triggered_at : Time.t;
  init : Time.span;
  exec : Time.span;
  preemption : Time.span;
  completed_at : Time.t;
}

let record_total r = Time.add_span r.init (Time.add_span r.exec r.preemption)

exception No_warm_sandbox of string

exception Unknown_function of string

module Recovery = struct
  type t = {
    max_attempts : int;
    backoff : Time.span;
    degrade : bool;
    warm_timeout : Time.span option;
    restore_timeout : Time.span option;
    cold_timeout : Time.span option;
  }

  let none =
    {
      max_attempts = 1;
      backoff = Time.span_zero;
      degrade = false;
      warm_timeout = None;
      restore_timeout = None;
      cold_timeout = None;
    }

  let default =
    {
      max_attempts = 4;
      backoff = Time.span_ms 1.0;
      degrade = true;
      (* each watchdog sits well above its rung's healthy worst case
         (vanilla warm resume ≲ 250 µs, restore ≈ 1.3 ms, boot ≈ 1.5 s)
         but below a slowdown-stretched one, so only genuine stragglers
         trip it *)
      warm_timeout = Some (Time.span_ms 1.0);
      restore_timeout = Some (Time.span_ms 5.0);
      cold_timeout = Some (Time.span_s 10.0);
    }

  let create ?(max_attempts = default.max_attempts)
      ?(backoff = default.backoff) ?(degrade = default.degrade)
      ?(warm_timeout = default.warm_timeout)
      ?(restore_timeout = default.restore_timeout)
      ?(cold_timeout = default.cold_timeout) () =
    if max_attempts < 1 then
      invalid_arg "Platform.Recovery.create: max_attempts < 1";
    { max_attempts; backoff; degrade; warm_timeout; restore_timeout;
      cold_timeout }
end

(* The live-invocation arena: one slot per in-flight invocation, its
   fields in slot-indexed columns.  Launch takes a slot; completion,
   exec crash and blackout give it back, so the arena grows to peak
   concurrency, not run length.  Each slot owns one completion thunk,
   built when the arena grows and reused by every invocation in the
   slot and every preemption reschedule, so a trigger allocates no
   per-invocation record or closure.  What a thunk does when it fires
   depends on [doomed]: a healthy invocation completes, a doomed one
   takes the exec-crash path — also after a preemption pushed it back.

   [sink] is what the completion notifies, with the trigger-record
   slot of the just-appended row: the cluster passes one sink per
   server, built once; a [trigger ~on_complete] caller gets a closure
   that boxes the row into a [record]. *)
type invocations = {
  mutable fn : int array;  (* fn id; -1 marks a free slot *)
  mutable mode : int array;  (* code of the rung serving it *)
  mutable orig_mode : int array;  (* code the trigger asked for *)
  mutable attempt : int array;
  mutable doomed : bool array;  (* an exec crash ends it *)
  mutable sandbox : Sandbox.t array;
  mutable started : int array;  (* the original trigger instant, ns *)
  mutable init : int array;
  mutable exec : int array;
  mutable preempt : int array;
  mutable finish : int array;  (* when its scheduled event fires, ns *)
  mutable event : Engine.event_handle array;
  mutable sink : (int -> unit) array;
  mutable thunk : (Engine.t -> unit) array;
  mutable free : int array;  (* stack of free slots, top at [free_n - 1] *)
  mutable free_n : int;
}

let no_sink (_ : int) = ()

type t = {
  engine : Engine.t;
  vmm : Vmm.t;
  scheduler : Scheduler.t;
  metrics : Metrics.t;
  rng : Rng.t;
  keep_alive : Time.span;
  recovery : Recovery.t;
  registry : Function_def.Registry.t;  (* name <-> dense fn-id *)
  pools : (string, Sandbox.t Queue.t) Hashtbl.t;
      (* FIFO warm pools: push-back on park, pop-front on trigger, O(1)
         either way so million-sandbox pools stay cheap *)
  mutable pools_by_id : Sandbox.t Queue.t array;
      (* fn-id -> the same queues as [pools]: the per-trigger path
         indexes an array instead of hashing the function name *)
  dvfs : Horse_cpu.Dvfs.t;
  energy : Horse_cpu.Energy.t;
  occupancy : int array;
      (* cpu -> slot of the invocation last launched there, or -1 *)
  inv : invocations;
  mutable busy_vcpus : int;  (* vCPUs held by live invocations *)
  arena : Trigger_records.t;  (* completed invocations, append order *)
  (* per-mode interned metric handles: the trigger and completion
     paths must neither sprintf a series name nor re-hash it *)
  latency_d : Metrics.dist array;
  init_d : Metrics.dist array;
  triggers_c : int ref array;
  completions_c : int ref;
  mutable next_sandbox_id : int;
}

let create ?(topology = Topology.r650) ?(cost = Cost_model.firecracker)
    ?(ull_count = 1) ?(keep_alive = Time.span_s 600.0) ?(jitter = 0.02)
    ?(seed = 42) ?(governor = Horse_cpu.Dvfs.Performance)
    ?(faults = Fault.Plan.none) ?(recovery = Recovery.none) ~engine () =
  let scheduler = Scheduler.create ~ull_count ~topology () in
  let metrics = Metrics.create () in
  let vmm =
    Vmm.create ~cost ~jitter ~seed:(seed + 1) ~faults ~scheduler ~metrics ()
  in
  {
    engine;
    vmm;
    scheduler;
    metrics;
    recovery;
    registry = Function_def.Registry.create ();
    dvfs = Horse_cpu.Dvfs.create ~governor ~topology ();
    energy = Horse_cpu.Energy.create ~topology ();
    rng = Rng.create ~seed;
    keep_alive;
    pools = Hashtbl.create 16;
    pools_by_id = [||];
    occupancy = Array.make (Scheduler.cpu_count scheduler) (-1);
    inv =
      {
        fn = [||];
        mode = [||];
        orig_mode = [||];
        attempt = [||];
        doomed = [||];
        sandbox = [||];
        started = [||];
        init = [||];
        exec = [||];
        preempt = [||];
        finish = [||];
        event = [||];
        sink = [||];
        thunk = [||];
        free = [||];
        free_n = 0;
      };
    busy_vcpus = 0;
    arena = Trigger_records.create ();
    latency_d =
      Array.init mode_count (fun i ->
          Metrics.dist_handle metrics
            ("platform.latency." ^ mode_name (mode_of_code i)));
    init_d =
      Array.init mode_count (fun i ->
          Metrics.dist_handle metrics
            ("platform.init." ^ mode_name (mode_of_code i)));
    triggers_c =
      Array.init mode_count (fun i ->
          Metrics.counter_ref metrics
            ("platform.triggers." ^ mode_name (mode_of_code i)));
    completions_c = Metrics.counter_ref metrics "platform.completions";
    next_sandbox_id = 0;
  }

let engine t = t.engine

let vmm t = t.vmm

let faults t = Vmm.faults t.vmm

let recovery t = t.recovery

let scheduler t = t.scheduler

let metrics t = t.metrics

let dvfs t = t.dvfs

let energy t = t.energy

let register t fn =
  if Function_def.Registry.find t.registry fn.Function_def.name <> None then
    invalid_arg
      (Printf.sprintf "Platform.register: %s already registered"
         fn.Function_def.name);
  let id = Function_def.Registry.intern t.registry fn in
  let q = Queue.create () in
  Hashtbl.replace t.pools fn.Function_def.name q;
  if id >= Array.length t.pools_by_id then begin
    let grown =
      Array.init
        (max 8 (2 * (id + 1)))
        (fun i ->
          if i < Array.length t.pools_by_id then t.pools_by_id.(i)
          else Queue.create ())
    in
    t.pools_by_id <- grown
  end;
  t.pools_by_id.(id) <- q

let find_function t name =
  match Function_def.Registry.find t.registry name with
  | Some id -> (Function_def.Registry.def t.registry id, id)
  | None -> raise (Unknown_function name)

let registry t = t.registry

let fn_id t ~name = snd (find_function t name)

let function_name t ~fn_id = Function_def.Registry.name t.registry fn_id

let pool t name =
  ignore (find_function t name);
  match Hashtbl.find_opt t.pools name with
  | Some p -> p
  | None ->
    let p = Queue.create () in
    Hashtbl.replace t.pools name p;
    p

let pool_size t ~name = Queue.length (pool t name)

let pool_size_id t ~fn_id =
  ignore (Function_def.Registry.def t.registry fn_id);
  Queue.length t.pools_by_id.(fn_id)

let new_sandbox t fn =
  let id = t.next_sandbox_id in
  t.next_sandbox_id <- id + 1;
  Sandbox.create ~id ~vcpus:fn.Function_def.vcpus
    ~memory_mb:fn.Function_def.memory_mb ~ull:fn.Function_def.ull ()

let provision t ~name ~count ~strategy =
  let fn, _ = find_function t name in
  let p = pool t name in
  let provisioned = ref 0 in
  for _ = 1 to count do
    (* a pause-time fault kills the fresh sandbox; retry the slot a
       bounded number of times rather than looping on a hot plan *)
    let rec attempt tries =
      let sb = new_sandbox t fn in
      ignore (Vmm.boot t.vmm sb);
      match Vmm.pause t.vmm ~strategy sb with
      | (_ : Time.span) ->
        Queue.push sb p;
        incr provisioned
      | exception Fault.Injected _ -> if tries < 3 then attempt (tries + 1)
    in
    attempt 1
  done;
  Metrics.incr t.metrics ~by:!provisioned "platform.provisioned"

let reclaim t ~name ~count =
  if count < 0 then invalid_arg "Platform.reclaim: negative count";
  let p = pool t name in
  let victims = ref 0 in
  while !victims < count && not (Queue.is_empty p) do
    Vmm.stop t.vmm (Queue.pop p);
    incr victims
  done;
  Metrics.incr t.metrics ~by:!victims "platform.reclaimed";
  !victims

let rec pop_pool t fn_id =
  let p = t.pools_by_id.(fn_id) in
  if Queue.is_empty p then
    raise (No_warm_sandbox (Function_def.Registry.name t.registry fn_id));
  let sb = Queue.take p in
  (* a stale entry (expired under us) is discarded and the next one
     tried; an empty pool after discards degrades like a dry pool *)
  if Fault.Plan.fires (Vmm.faults t.vmm) Fault.Pool_expiry then begin
    Vmm.stop t.vmm sb;
    Metrics.incr t.metrics "platform.expired_pool_entries";
    pop_pool t fn_id
  end
  else sb

let push_pool t fn_id sb = Queue.push sb t.pools_by_id.(fn_id)

let remove_from_pool t fn_id sb =
  let p = t.pools_by_id.(fn_id) in
  let before = Queue.length p in
  let keep = Queue.create () in
  Queue.iter (fun other -> if not (other == sb) then Queue.push other keep) p;
  Queue.clear p;
  Queue.transfer keep p;
  Queue.length p < before

(* A P²SM merge thread landed on [cpu]: whatever runs there loses a
   context-switch round-trip, the thread's splice, and the cache/TLB
   refill proportional to the state the merge touched — the dominant
   term, and the paper's ≈30 µs p99 tail at 36 vCPUs. *)
let preemption_penalty t ~resumed_vcpus =
  let c = Vmm.cost t.vmm in
  Time.span_ns
    (int_of_float
       (Float.round
          ((2.0 *. c.Cost_model.context_switch_ns)
          +. c.Cost_model.psm_splice_ns
          +. (float_of_int resumed_vcpus
             *. c.Cost_model.preempt_cache_refill_per_vcpu_ns))))

let rec apply_preemptions t ~resumed_vcpus = function
  | [] -> ()
  | cpu :: rest ->
    let s = t.occupancy.(cpu) in
    if s >= 0 then begin
      let inv = t.inv in
      let penalty = preemption_penalty t ~resumed_vcpus in
      if Engine.cancel t.engine inv.event.(s) then begin
        let ns = Time.span_to_ns penalty in
        inv.preempt.(s) <- inv.preempt.(s) + ns;
        inv.finish.(s) <- inv.finish.(s) + ns;
        Metrics.incr t.metrics "platform.preemptions";
        inv.event.(s) <-
          Engine.schedule_at t.engine ~at:(Time.of_ns inv.finish.(s))
            inv.thunk.(s)
      end
    end;
    apply_preemptions t ~resumed_vcpus rest

let schedule_expiry t fn_id sb =
  ignore
    (Engine.schedule t.engine ~after:t.keep_alive (fun _ ->
         if Sandbox.state sb = Sandbox.Paused && remove_from_pool t fn_id sb
         then begin
           Vmm.stop t.vmm sb;
           Metrics.incr t.metrics "platform.keepalive_expiries"
         end))

(* Materialize the boxed record for one trigger-record slot — readers
   that ask for a boxed row and [trigger ~on_complete] callers pay for
   this. *)
let record_of_slot t i =
  let a = t.arena in
  {
    function_name =
      Function_def.Registry.name t.registry (Trigger_records.fn_id a i);
    mode = mode_of_code (Trigger_records.mode_code a i);
    triggered_at = Trigger_records.triggered_at a i;
    init = Trigger_records.init a i;
    exec = Trigger_records.exec a i;
    preemption = Trigger_records.preemption a i;
    completed_at = Trigger_records.completed_at a i;
  }

(* Vacate the CPUs of [placements] (the invocation's own, read before
   its sandbox is paused or crashed). *)
let rec vacate t = function
  | [] -> ()
  | { Sandbox.queue; _ } :: rest ->
    t.occupancy.(Runqueue.cpu queue) <- -1;
    t.busy_vcpus <- t.busy_vcpus - 1;
    vacate t rest

(* End the invocation in slot [s]: free its CPUs and the slot. *)
let release t s =
  let inv = t.inv in
  vacate t (Sandbox.placements inv.sandbox.(s));
  inv.fn.(s) <- -1;
  inv.sink.(s) <- no_sink;
  inv.free.(inv.free_n) <- s;
  inv.free_n <- inv.free_n + 1

(* account the execution's energy at each CPU's current frequency *)
let rec account_energy t exec = function
  | [] -> ()
  | { Sandbox.queue; _ } :: rest ->
    let cpu = Runqueue.cpu queue in
    Horse_cpu.Energy.account t.energy ~cpu
      ~freq_mhz:(Horse_cpu.Dvfs.frequency_mhz t.dvfs ~cpu)
      exec;
    account_energy t exec rest

let complete t s =
  let inv = t.inv in
  let fn_id = inv.fn.(s) and code = inv.mode.(s) in
  let sandbox = inv.sandbox.(s) and sink = inv.sink.(s) in
  let started = inv.started.(s) and init_ns = inv.init.(s) in
  let exec_ns = inv.exec.(s) and preempt_ns = inv.preempt.(s) in
  account_energy t (Time.span_ns exec_ns) (Sandbox.placements sandbox);
  release t s;
  let handle =
    Trigger_records.append t.arena ~fn_id ~mode:code
      ~triggered_at:(Time.of_ns started) ~init:(Time.span_ns init_ns)
      ~exec:(Time.span_ns exec_ns) ~preemption:(Time.span_ns preempt_ns)
      ~completed_at:(Engine.now t.engine)
  in
  t.completions_c := !(t.completions_c) + 1;
  Metrics.observe_dist t.latency_d.(code)
    (float_of_int (init_ns + exec_ns + preempt_ns));
  (* the init distribution is observed here, not at launch: a doomed
     attempt (exec crash, later retried or aborted) must not leak a
     phantom observation that under-reports the burned-rung and
     backoff time eventually charged into the completing record's
     [init].  Observing at completion keeps the stream in lock-step
     with the arena — dist count = record count — so a Quantile
     observer that looks mid-ladder sees only fully-charged values. *)
  Metrics.observe_dist t.init_d.(code) (float_of_int init_ns);
  (* post-execution policy: warm sandboxes go back to their pool, cold
     ones idle under keep-alive before being reclaimed.  A crash during
     the re-pause loses the sandbox (it is never pooled) but not the
     completed invocation — the arena row above already stands. *)
  (match mode_of_code code with
  | Warm strategy -> (
    try
      ignore (Vmm.pause t.vmm ~strategy sandbox);
      push_pool t fn_id sandbox
    with Fault.Injected _ -> Metrics.incr t.metrics "platform.pool_losses")
  | Cold | Restore -> (
    try
      ignore (Vmm.pause t.vmm ~strategy:Sandbox.Vanilla sandbox);
      push_pool t fn_id sandbox;
      schedule_expiry t fn_id sandbox
    with Fault.Injected _ -> Metrics.incr t.metrics "platform.pool_losses"));
  sink (Trigger_records.slot t.arena handle)

let downgrade = function
  | Warm _ -> Some Restore
  | Restore -> Some Cold
  | Cold -> None

let timeout_for (recovery : Recovery.t) = function
  | Warm _ -> recovery.Recovery.warm_timeout
  | Restore -> recovery.Recovery.restore_timeout
  | Cold -> recovery.Recovery.cold_timeout

(* One rung of the fallback ladder: try to bring a sandbox up under
   [mode]; on an injected fault, a dry pool or a watchdog timeout
   (with [degrade] on) charge the burned virtual time into
   [penalty_ns] and [descend] Warm → Restore → Cold.  The bottom rung
   never descends, so the ladder always terminates.  [attempt] and
   [orig_mode] belong to the async retry loop: an exec-time crash
   re-enters here from the top of the ladder after a backoff. *)
let rec start_attempt t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at
    ~penalty_ns =
  let degrade = t.recovery.Recovery.degrade in
  match mode with
  | Cold ->
    let sb = new_sandbox t (Function_def.Registry.def t.registry fn_id) in
    let boot = Vmm.boot t.vmm sb in
    ready t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at ~penalty_ns
      ~sandbox:sb
      ~init:
        (Time.add_span boot
           (Vmm.dispatch_overhead t.vmm ~strategy:Sandbox.Vanilla))
      ~preempted_cpus:[]
  | Restore -> (
    let sb = new_sandbox t (Function_def.Registry.def t.registry fn_id) in
    match Vmm.restore t.vmm sb with
    | exception Fault.Injected { cost; _ } when degrade ->
      descend t ~fn_id ~orig_mode ~mode ~to_:Cold ~sink ~attempt
        ~triggered_at ~penalty_ns ~burned_ns:(Time.span_to_ns cost)
    | restore ->
      ready t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at
        ~penalty_ns ~sandbox:sb
        ~init:
          (Time.add_span restore
             (Vmm.dispatch_overhead t.vmm ~strategy:Sandbox.Vanilla))
        ~preempted_cpus:[])
  | Warm strategy -> (
    match pop_pool t fn_id with
    | exception No_warm_sandbox _ when degrade ->
      descend t ~fn_id ~orig_mode ~mode ~to_:Restore ~sink ~attempt
        ~triggered_at ~penalty_ns ~burned_ns:0
    | sb -> (
      (* the resume runs under the strategy recorded at pause time;
         dispatch must match it (a vanilla-paused sandbox cannot take
         the HORSE fast path even if the trigger asked for it) *)
      let recorded =
        match Sandbox.pause_strategy sb with Some r -> r | None -> strategy
      in
      match Vmm.resume t.vmm sb with
      | exception Fault.Injected { cost; _ } when degrade ->
        descend t ~fn_id ~orig_mode ~mode ~to_:Restore ~sink ~attempt
          ~triggered_at ~penalty_ns ~burned_ns:(Time.span_to_ns cost)
      | result ->
        ready t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at
          ~penalty_ns ~sandbox:sb
          ~init:
            (Time.add_span result.Vmm.total
               (Vmm.dispatch_overhead t.vmm ~strategy:recorded))
          ~preempted_cpus:result.Vmm.preempted_cpus))

and descend t ~fn_id ~orig_mode ~mode ~to_ ~sink ~attempt ~triggered_at
    ~penalty_ns ~burned_ns =
  Metrics.incr t.metrics
    (Printf.sprintf "platform.fallbacks.%s-to-%s" (mode_name mode)
       (mode_name to_));
  start_attempt t ~fn_id ~orig_mode ~mode:to_ ~sink ~attempt ~triggered_at
    ~penalty_ns:(penalty_ns + burned_ns)

(* The sandbox is up: the rung's watchdog has the last word. *)
and ready t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at ~penalty_ns
    ~sandbox ~init ~preempted_cpus =
  match timeout_for t.recovery mode with
  | Some limit when Time.span_to_ns init > Time.span_to_ns limit -> (
    Metrics.incr t.metrics
      (Printf.sprintf "platform.timeouts.%s" (mode_name mode));
    match downgrade mode with
    | Some next when t.recovery.Recovery.degrade ->
      (* the watchdog killed the attempt at [limit]; the slow start
         itself is abandoned, only the watchdog window is charged *)
      Vmm.stop t.vmm sandbox;
      descend t ~fn_id ~orig_mode ~mode ~to_:next ~sink ~attempt
        ~triggered_at ~penalty_ns ~burned_ns:(Time.span_to_ns limit)
    | Some _ | None ->
      (* bottom rung (or degradation off): counted, but accepted *)
      launch t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at
        ~penalty_ns ~sandbox ~init ~preempted_cpus)
  | Some _ | None ->
    launch t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at ~penalty_ns
      ~sandbox ~init ~preempted_cpus

(* Double the arena (8 slots at first).  [fill] seeds the new sandbox
   cells; each new slot gets its thunk here, once for its life. *)
and grow_arena t ~fill =
  let inv = t.inv in
  let cap = Array.length inv.fn in
  let cap' = max 8 (2 * cap) in
  let widen col v =
    let w = Array.make cap' v in
    Array.blit col 0 w 0 cap;
    w
  in
  inv.fn <- widen inv.fn (-1);
  inv.mode <- widen inv.mode 0;
  inv.orig_mode <- widen inv.orig_mode 0;
  inv.attempt <- widen inv.attempt 0;
  inv.doomed <- widen inv.doomed false;
  inv.sandbox <- widen inv.sandbox fill;
  inv.started <- widen inv.started 0;
  inv.init <- widen inv.init 0;
  inv.exec <- widen inv.exec 0;
  inv.preempt <- widen inv.preempt 0;
  inv.finish <- widen inv.finish 0;
  inv.event <- widen inv.event Engine.null_handle;
  inv.sink <- widen inv.sink no_sink;
  inv.thunk <- widen inv.thunk ignore;
  for s = cap to cap' - 1 do
    inv.thunk.(s) <- (fun _ -> resolve t s)
  done;
  (* growth only happens with every slot taken, so the free stack is
     just the new slots, lowest on top *)
  inv.free <-
    Array.init cap' (fun k -> if k < cap' - cap then cap' - 1 - k else 0);
  inv.free_n <- cap' - cap

and launch t ~fn_id ~orig_mode ~mode ~sink ~attempt ~triggered_at ~penalty_ns
    ~sandbox ~init ~preempted_cpus =
  let now = Engine.now t.engine in
  apply_preemptions t ~resumed_vcpus:(Sandbox.vcpu_count sandbox)
    preempted_cpus;
  let fn = Function_def.Registry.def t.registry fn_id in
  let exec_ns = Time.span_to_ns (Function_def.sample_exec fn t.rng) in
  (* honest latency accounting: init covers everything since the
     original trigger — async retry waits (elapsed virtual time),
     failed-rung costs ([penalty_ns]) and the successful rung itself *)
  let wait_ns = Time.span_to_ns (Time.diff now triggered_at) in
  let init_ns = wait_ns + penalty_ns + Time.span_to_ns init in
  let inv = t.inv in
  if inv.free_n = 0 then grow_arena t ~fill:sandbox;
  inv.free_n <- inv.free_n - 1;
  let s = inv.free.(inv.free_n) in
  let code = mode_code mode in
  inv.fn.(s) <- fn_id;
  inv.mode.(s) <- code;
  inv.orig_mode.(s) <- mode_code orig_mode;
  inv.attempt.(s) <- attempt;
  inv.sandbox.(s) <- sandbox;
  inv.started.(s) <- Time.to_ns triggered_at;
  inv.init.(s) <- init_ns;
  inv.exec.(s) <- exec_ns;
  inv.preempt.(s) <- 0;
  inv.sink.(s) <- sink;
  occupy t s (Sandbox.placements sandbox);
  (* doomed: the sandbox dies part-way through execution.  The crash
     instant is drawn now (deterministically); the handler decides
     between a backed-off retry and an abort when it fires. *)
  let faults = Vmm.faults t.vmm in
  let doomed = Fault.Plan.fires faults Fault.Exec_crash in
  let run_ns =
    if doomed then
      int_of_float
        (Fault.Plan.fraction faults Fault.Exec_crash *. float_of_int exec_ns)
    else exec_ns
  in
  inv.doomed.(s) <- doomed;
  inv.finish.(s) <- Time.to_ns triggered_at + init_ns + run_ns;
  inv.event.(s) <-
    Engine.schedule_at t.engine ~at:(Time.of_ns inv.finish.(s)) inv.thunk.(s);
  if Horse_sim.Logging.debug_on log_src then
    Log.debug (fun m ->
        m "trigger %s mode=%s init=%dns exec=%dns" fn.Function_def.name
          (mode_name mode) init_ns exec_ns);
  (* hoisted per-mode handles: no sprintf, no series-name hashing on
     the per-trigger path.  The init distribution is NOT observed here
     — only [complete] feeds it, so doomed attempts never publish a
     partial init that mid-ladder observers would mistake for a final
     one (see [complete]). *)
  let c = t.triggers_c.(code) in
  c := !c + 1

(* Claim the CPUs of a launching invocation.  The step-5 load variable
   drives frequency scaling: each CPU's governor is refreshed from its
   run queue's tracked load. *)
and occupy t s = function
  | [] -> ()
  | { Sandbox.queue; _ } :: rest ->
    let cpu = Runqueue.cpu queue in
    Horse_cpu.Dvfs.note_utilisation t.dvfs ~cpu
      (Runqueue.utilisation queue);
    t.occupancy.(cpu) <- s;
    t.busy_vcpus <- t.busy_vcpus + 1;
    occupy t s rest

and resolve t s = if t.inv.doomed.(s) then exec_crash t s else complete t s

and exec_crash t s =
  let inv = t.inv in
  let fn_id = inv.fn.(s) and sandbox = inv.sandbox.(s) in
  let sink = inv.sink.(s) and attempt = inv.attempt.(s) in
  let orig_mode = mode_of_code inv.orig_mode.(s) in
  let triggered_at = Time.of_ns inv.started.(s) in
  release t s;
  Vmm.crash t.vmm sandbox;
  Metrics.incr t.metrics "platform.exec_crashes";
  let recovery = t.recovery in
  if attempt < recovery.Recovery.max_attempts then begin
    Metrics.incr t.metrics "platform.retries";
    let delay_ns =
      Time.span_to_ns recovery.Recovery.backoff * (1 lsl (attempt - 1))
    in
    ignore
      (Engine.schedule t.engine ~after:(Time.span_ns delay_ns) (fun _ ->
           match
             start_attempt t ~fn_id ~orig_mode ~mode:orig_mode ~sink
               ~attempt:(attempt + 1) ~triggered_at ~penalty_ns:0
           with
           | () -> ()
           | exception (No_warm_sandbox _ | Fault.Injected _) ->
             Metrics.incr t.metrics "platform.aborts"))
  end
  else Metrics.incr t.metrics "platform.aborts"

let trigger_sink t ~fn_id ~mode ~sink =
  start_attempt t ~fn_id ~orig_mode:mode ~mode ~sink ~attempt:1
    ~triggered_at:(Engine.now t.engine) ~penalty_ns:0

let trigger t ~name ~mode ?on_complete () =
  let _, fn_id = find_function t name in
  let sink =
    match on_complete with
    | None -> no_sink
    | Some f -> fun slot -> f (record_of_slot t slot)
  in
  trigger_sink t ~fn_id ~mode ~sink

(* The allocation-free entry point: function pre-resolved to its dense
   id, completion notified by trigger-record slot rather than a boxed
   record.  The cluster rides this with one sink per server. *)
let trigger_id t ~fn_id ~mode ~on_complete_slot =
  ignore (Function_def.Registry.def t.registry fn_id);
  trigger_sink t ~fn_id ~mode ~sink:on_complete_slot

(* A whole-server outage: every in-flight invocation is lost (its
   completion event cancelled, its sandbox crashed) and every warm
   pool flushed.  Returns how many in-flight invocations died; pool
   entries are counted separately in [platform.blackout_pool_losses].
   Recovery is the cluster's business — it re-routes around the dead
   server and marks it healthy again later. *)
let blackout t =
  let inv = t.inv in
  let lost = ref 0 in
  for s = 0 to Array.length inv.fn - 1 do
    if inv.fn.(s) >= 0 then begin
      ignore (Engine.cancel t.engine inv.event.(s));
      let sandbox = inv.sandbox.(s) in
      release t s;
      Vmm.crash t.vmm sandbox;
      incr lost
    end
  done;
  let pooled = ref 0 in
  Hashtbl.iter
    (fun _ p ->
      Queue.iter
        (fun sb ->
          Vmm.crash t.vmm sb;
          incr pooled)
        p;
      Queue.clear p)
    t.pools;
  Metrics.incr t.metrics "platform.blackouts";
  Metrics.incr t.metrics ~by:!lost "platform.blackout_invocation_losses";
  Metrics.incr t.metrics ~by:!pooled "platform.blackout_pool_losses";
  !lost

let trigger_records t = t.arena

let record_count t = Trigger_records.length t.arena

let iter_records t f = Trigger_records.iter t.arena f

let fold_records t ~init ~f = Trigger_records.fold t.arena ~init ~f

let live_invocations t = Array.length t.inv.fn - t.inv.free_n

let invocation_slots t = Array.length t.inv.fn

let busy_vcpus t = t.busy_vcpus
