(** A multi-server FaaS deployment: several {!Platform}s (one
    hypervisor each) behind a front-end router.

    The paper evaluates a single server; real provisioned concurrency
    spreads the warm pool across a fleet.  A cluster built with
    {!create} shares one simulation engine, so cross-server timelines
    stay coherent; one built with {!create_sharded} partitions the run
    over a {!Horse_sim.Shard_engine} — the router is logical shard 0,
    server [i] is shard [i + 1], and every router<->server interaction
    crosses a placement delay as a deterministic cross-shard message,
    which lets {!run} drain the servers on multiple domains while
    staying bit-identical to the sequential run.

    Each trigger is placed by a pluggable scheduling policy
    ({!Policy}).  The built-ins:

    - {!Policy.push} — the legacy push router ([Round_robin] /
      [Least_loaded] / [Warm_first] over optimistically-debited
      mirrors), bit-for-bit the pre-policy behaviour;
    - {!Policy.pull} — idle servers claim triggers from a router-side
      queue through capacity tokens, eliminating stale-mirror
      misroutes during blackouts;
    - {!Policy.core_granular} — route on per-vCPU occupancy mirrors,
      late-binding each vCPU to a run queue only at dispatch time.

    The router tracks per-server health: a blacked-out server (see
    {!schedule_faults}) receives no traffic until it recovers, and a
    trigger that cannot be placed returns a typed {!rejection} instead
    of letting an exception escape. *)

type routing = Round_robin | Least_loaded | Warm_first

val routing_name : routing -> string

type reject_reason =
  | All_servers_down  (** no healthy server to route to *)
  | No_warm_capacity
      (** the chosen server raised {!Platform.No_warm_sandbox} (only
          reachable with {!Platform.Recovery.t.degrade} off) *)

val reject_reason_name : reject_reason -> string

type rejection = {
  reason : reject_reason;
  function_name : string;
  at : Horse_sim.Time_ns.t;  (** when the router gave up *)
}

type outcome =
  | Accepted of int  (** server index *)
  | Rejected of rejection
  | Queued
      (** the policy deferred placement; the trigger waits in the
          router-side queue until a server claims it (pull policy) *)

(** The scheduling-policy interface (the tentpole of the cluster's
    routing layer).  A policy is a recipe ({!t}) instantiated once per
    cluster into an {!instance} holding its mutable state (cursors,
    token counts).  The cluster calls [decide] for every trigger and
    the [on_*] hooks as routing-relevant events reach the router — all
    on the router's timeline, in deterministic message-delivery order,
    so any policy is automatically bit-identical across [--jobs] and
    [--shards].

    Hooks return {e claims}: server indices asking to be handed a
    queued trigger.  The cluster resolves each claim against its
    pending queue — dispatching the oldest trigger to the claiming
    server (one placement delay away on a sharded cluster), or calling
    [on_claim_unused] so the policy can reclaim the token when the
    queue is dry.  Claims for servers that went unhealthy in the
    meantime are dropped. *)
module Policy : sig
  (** What a policy may read: the router's believed per-server state.
      On a {!create} cluster these read live server state
      synchronously; on a {!create_sharded} cluster they read the
      router's message-maintained mirrors.  [v_warm] is relative to
      the function whose trigger is being decided (it is only
      meaningful inside [decide]). *)
  type view = {
    v_servers : int;
    v_healthy : int -> bool;
    v_live : int -> int;  (** believed live invocations per server *)
    v_warm : int -> int;  (** believed warm-pool size for the function *)
    v_busy : int -> int;  (** believed busy vCPUs per server *)
    v_total_vcpus : int;  (** logical CPUs per server *)
    v_pending : unit -> int;  (** triggers waiting in the router queue *)
    v_least_loaded : unit -> int option;
        (** lowest-indexed healthy server with minimal [v_live]
            (O(1) amortized on sharded clusters via the load index) *)
  }

  type decision =
    | Assign of int  (** place on this server now *)
    | Enqueue  (** park in the router queue until a server claims it *)

  type instance = {
    label : string;
    decide : view -> vcpus:int -> needs_pool:bool -> decision;
        (** [vcpus] is the function's vCPU requirement; [needs_pool]
            is true for [Warm _] triggers.  Only called while at least
            one server is healthy ([All_servers_down] is rejected
            before the policy runs). *)
    on_completion : view -> server:int -> int list;
        (** a completion notification from [server] reached the
            router; returns claims *)
    on_rejection : view -> server:int -> int list;
        (** a dry-pool rejection from [server] reached the router *)
    on_health_change : view -> server:int -> up:bool -> int list;
        (** [server] was marked down (blackout) or back up *)
    on_provision : server:int -> count:int -> unit;
        (** pre-run: [count] warm sandboxes were parked on [server] *)
    on_claim_unused : server:int -> unit;
        (** a claim found the queue empty; the policy may bank it *)
  }

  type t
  (** A named policy recipe; {!instantiate} builds fresh per-cluster
      state. *)

  val name : t -> string

  val v : name:string -> (servers:int -> instance) -> t
  (** Define a custom policy. *)

  val instantiate : t -> servers:int -> instance

  val push : ?routing:routing -> unit -> t
  (** The legacy push router (default [Warm_first]); placements are
      bit-for-bit those of the pre-policy cluster.  Never enqueues. *)

  val pull : unit -> t
  (** Pull-based scheduling (Hiku-style).  Each server holds claim
      tokens mirroring proven free capacity: seeded 1 at creation,
      [+count] per provisioned sandbox, [+1] per completion or
      rejection notification, zeroed on a health transition (a
      recovered server restarts with a 2-token probe window).
      [decide] spends a token of the healthiest-stocked server
      (preferring warm holders for warm triggers); with no tokens the
      trigger is [Enqueue]d until a completion mints a claim — so
      after a blackout wipes a server's pools, traffic follows real
      completions instead of stale mirrors. *)

  val core_granular : unit -> t
  (** Core-granular late binding (Kaffes-style): route on per-vCPU
      occupancy ([v_busy] vs [v_total_vcpus]), preferring the server
      with the most free cores that can hold the trigger's [vcpus]
      outright (warm holders first for warm triggers); the server's
      scheduler late-binds each vCPU to the shallowest run queue at
      dispatch time ({!Horse_sched.Scheduler.queue_depth}).  Never
      enqueues. *)

  val builtins : unit -> t list
  (** [[push (); pull (); core_granular ()]] — the shoot-out set. *)
end

type t

val create :
  ?servers:int ->
  ?policy:Policy.t ->
  ?e2e:bool ->
  ?topology:Horse_cpu.Topology.t ->
  ?cost:Horse_cpu.Cost_model.t ->
  ?keep_alive:Horse_sim.Time_ns.span ->
  ?seed:int ->
  ?faults:Horse_fault.Fault.Plan.t ->
  ?recovery:Platform.Recovery.t ->
  ?ull_count:int ->
  engine:Horse_sim.Engine.t ->
  unit ->
  t
(** Defaults: 4 servers, each server an r650 with one ull_runqueue,
    an inert fault plan, legacy (no-op) recovery.  [policy] is the
    scheduling policy (default [Policy.push ()], the legacy
    [Warm_first] router; pass [Policy.push ~routing ()] for another
    push routing).  [e2e] (default off) turns on the router-side
    end-to-end latency estimator ({!e2e_latencies}).  Each server's platform gets its own plan
    derived from [faults] by server index, so per-server fault
    sequences are independent of routing order; the cluster-level plan
    drives the {!schedule_faults} blackout schedule and counts its
    injections in {!metrics}.  [ull_count] sets the reserved ull
    runqueues per server: parked HORSE sandboxes spread across them,
    and because a paused sandbox's P²SM maintenance fires on every
    mutation of the queue it is attached to, per-trigger maintenance
    cost scales with [parked / ull_count] — raise it for large warm
    pools.
    @raise Invalid_argument if [servers <= 0]. *)

val create_sharded :
  ?servers:int ->
  ?policy:Policy.t ->
  ?e2e:bool ->
  ?topology:Horse_cpu.Topology.t ->
  ?cost:Horse_cpu.Cost_model.t ->
  ?keep_alive:Horse_sim.Time_ns.span ->
  ?seed:int ->
  ?faults:Horse_fault.Fault.Plan.t ->
  ?recovery:Platform.Recovery.t ->
  ?ull_count:int ->
  ?placement:Horse_sim.Time_ns.span ->
  ?shards:int ->
  ?scheduler:Horse_sim.Shard_engine.scheduler ->
  ?window:Horse_sim.Time_ns.span ->
  unit ->
  t
(** Like {!create}, but the cluster owns a {!Horse_sim.Shard_engine}
    with [servers + 1] logical shards whose channel matrix mirrors the
    topology: one channel per router<->server direction carrying
    [placement] (the placement latency, default 50us), and no
    server<->server channels, so the adaptive scheduler bounds each
    shard by its tightest relevant inbound link.  [scheduler]
    (default [Adaptive]) and [window] pass through to
    {!Horse_sim.Shard_engine.create} — [Lockstep] reproduces the PR-5
    epoch scheme and is kept as the epoch-semantics oracle.  [shards]
    (default 1) is the number of execution strands {!run} uses —
    purely an execution-placement choice, results are bit-identical
    for every value and every scheduler.  The router routes from its own
    mirrors of per-server live-load, busy-vCPU and pool sizes, updated
    only by the cross-shard message protocol: a trigger optimistically
    debits the mirrors, the server's completion (or dry-pool
    rejection) notification reconciles them one placement delay later.
    Pull-policy claims ride the same protocol: the claim is resolved
    on the router timeline and the claimed trigger crosses one
    placement delay to the claiming server.
    @raise Invalid_argument if [servers <= 0] or [shards < 1]. *)

val server_count : t -> int

val server : t -> int -> Platform.t
(** @raise Invalid_argument on an out-of-range index. *)

val policy_name : t -> string
(** The instantiated policy's label (e.g. ["push-warm-first"],
    ["pull"], ["core"]). *)

val engine : t -> Horse_sim.Engine.t
(** The router's engine: the engine passed to {!create}, or logical
    shard 0 of a sharded cluster.  Schedule workload arrivals here. *)

val shard_engine : t -> Horse_sim.Shard_engine.t option
(** The shard engine of a {!create_sharded} cluster ([None] for
    {!create}).  Exposes {!Horse_sim.Shard_engine.epochs} and
    {!Horse_sim.Shard_engine.messages_delivered} diagnostics. *)

val shards : t -> int
(** Execution tasks {!run} will use (1 for a {!create} cluster). *)

val metrics : t -> Horse_sim.Metrics.t
(** Fleet-level counters: [cluster.rejections.<reason>],
    [cluster.blackouts], [cluster.blackout_lost],
    [cluster.recoveries]. *)

val healthy : t -> int -> bool
(** @raise Invalid_argument on an out-of-range index. *)

val healthy_count : t -> int

val pending_count : t -> int
(** Triggers parked in the router-side queue (pull policy), waiting
    for a claim.  Always 0 under the push and core policies. *)

val e2e_latencies : t -> Horse_sim.Stats.Quantile.t option
(** With [~e2e:true], the router-observed end-to-end latency stream in
    microseconds — arrival at the router to completion notification
    (including queueing, placement delays and the recovery ladder),
    tracked at p50/p99/p999.  [None] when [e2e] is off. *)

val mark_down : t -> int -> unit
(** Exclude a server from routing (as a blackout does).  Exposed for
    tests and manual drain. *)

val mark_up : t -> int -> unit
(** Re-admit a server to routing. *)

val register : t -> Function_def.t -> unit
(** Register the function on every server. *)

val fn_id : t -> name:string -> int
(** The fleet-wide dense id for a registered function.  Every server
    interns the same functions in the same order, so one id stands for
    all servers — resolve once, then use {!trigger_id} on hot paths.
    @raise Platform.Unknown_function *)

val function_name : t -> fn_id:int -> string
(** @raise Invalid_argument on an unknown id. *)

val provision :
  t -> name:string -> total:int -> strategy:Horse_vmm.Sandbox.strategy -> unit
(** Park [total] warm sandboxes for [name], spread round-robin across
    the servers (the policy's [on_provision] hook observes each).
    When the fleet filled more than half the minor heap, ends with
    one minor collection, so it is promoted during provisioning rather
    than by the run's first. *)

val pool_size : t -> name:string -> int
(** Fleet-wide warm-pool size. *)

val trigger :
  t ->
  name:string ->
  mode:Platform.start_mode ->
  ?on_complete:(int * Platform.record -> unit) ->
  unit ->
  outcome
(** Route one invocation among the healthy servers.  [Accepted i] is
    the chosen server; [Rejected _] means no healthy server existed or
    the chosen one was dry (the rejection is recorded and counted, and
    [on_complete] never fires); [Queued] means the policy parked the
    trigger in the router queue until a server claims it.  On a
    sharded cluster the dry-pool case surfaces one placement delay
    later as a recorded [No_warm_capacity] rejection instead — the
    router has already committed [Accepted i] by the time the server
    reports back.
    When [on_complete] is omitted the completion is only logged (one
    packed int), never materialized as a boxed record.
    @raise Platform.Unknown_function *)

val trigger_id :
  t ->
  fn_id:int ->
  mode:Platform.start_mode ->
  ?on_complete:(int * Platform.record -> unit) ->
  unit ->
  outcome
(** {!trigger} by pre-resolved dense id — no per-trigger string
    lookup.  @raise Invalid_argument on an unknown id. *)

val schedule_batch :
  ?window:int ->
  ?on_complete:(int * Platform.record -> unit) ->
  t ->
  Horse_trace.Batch.t ->
  unit
(** Ingest a whole (sorted) trigger batch, offsets relative to the
    router engine's current time, each trigger routed exactly as
    {!trigger_id} would at its arrival instant ([payload] column =
    {!Platform.mode_code}).  Arrivals are pre-scheduled through a
    windowed cursor ([window] at a time, default 4096) so the event
    queue holds one window rather than the whole trace; within the
    batch, arrivals fire in batch order.  With [window >= length]
    the schedule is event-for-event identical to calling
    {!trigger_id} in a loop of [Engine.schedule_at]; with smaller
    windows, later-window arrivals are enqueued mid-run, so an
    unrelated simulation event at {e exactly} a window-boundary
    timestamp may interleave differently — each ingestion style is
    individually deterministic and shard-count-invariant.
    @raise Invalid_argument if [window < 1] or the batch is unsorted. *)

val run : ?until:Horse_sim.Time_ns.t -> t -> unit
(** Drive the simulation to completion (or to [until], inclusive).
    For a {!create} cluster this is [Engine.run] on the shared engine;
    for a {!create_sharded} cluster it drives the shard engine's epoch
    loop, spreading each round's shard work over the persistent
    [shards]-wide {!Horse_parallel.Team} when [shards > 1]. *)

val schedule_faults : t -> horizon:Horse_sim.Time_ns.span -> int
(** Schedule the cluster plan's {!Horse_fault.Fault.Plan.blackouts}
    over the next [horizon]: at each outage start the server is marked
    down and {!Platform.blackout}ed; at its end the server is marked
    healthy again (its pools start empty — the warm capacity was
    lost).  On a {!create} cluster all of this runs on the shared
    engine; on a {!create_sharded} cluster the router flips health on
    its own timeline while the blackout command is posted to the
    server's shard at the outage instant, and the lost-invocation
    count reaches the router one placement delay later.  Returns the
    number of outages scheduled (0 for an inert plan). *)

val record_count : t -> int
(** Completions logged fleet-wide so far. *)

val iter_records : t -> (int -> int -> unit) -> unit
(** [iter_records t f] applies [f server slot] to every completion in
    router-observed order, allocating nothing; [slot] indexes
    [Platform.trigger_records (server t server)]. *)

val fold_records : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
(** Like {!iter_records}: [f acc server slot]. *)

val rejections : t -> rejection list
(** All rejected triggers, oldest first. *)

val live_invocations : t -> int

val triggers_per_server : t -> int array
(** How many triggers each server {e accepted} (routing
    diagnostics). *)
