module Engine = Horse_sim.Engine
module Shard_engine = Horse_sim.Shard_engine
module Time = Horse_sim.Time_ns
module Metrics = Horse_sim.Metrics
module Stats = Horse_sim.Stats
module Topology = Horse_cpu.Topology
module Cost_model = Horse_cpu.Cost_model
module Scheduler = Horse_sched.Scheduler
module Fault = Horse_fault.Fault
module Team = Horse_parallel.Team
module Batch = Horse_trace.Batch

type routing = Round_robin | Least_loaded | Warm_first

let routing_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Warm_first -> "warm-first"

type reject_reason = All_servers_down | No_warm_capacity

let reject_reason_name = function
  | All_servers_down -> "all-servers-down"
  | No_warm_capacity -> "no-warm-capacity"

type rejection = {
  reason : reject_reason;
  function_name : string;
  at : Time.t;
}

type outcome = Accepted of int | Rejected of rejection | Queued

(* The scheduling-policy interface.  A policy sees the router's state
   only through a {!Policy.view} — per-server health, the live/warm
   mirrors, per-server busy-vCPU counts — and answers with a
   {!Policy.decision}.  Event hooks ([on_completion] etc.) run on the
   router's timeline, in deterministic message-delivery order, and
   return {e claims}: server indices asking to be handed a queued
   trigger.  The cluster resolves claims against its pending queue
   (dispatching one trigger per claim, or calling [on_claim_unused]
   when the queue is dry), so policies never touch triggers
   directly and every policy inherits the cluster's bit-identical
   execution discipline. *)
module Policy = struct
  type view = {
    v_servers : int;
    v_healthy : int -> bool;
    v_live : int -> int;  (* believed live invocations per server *)
    v_warm : int -> int;
        (* believed warm-pool size, for the function being decided *)
    v_busy : int -> int;  (* believed busy vCPUs per server *)
    v_total_vcpus : int;  (* logical CPUs per server *)
    v_pending : unit -> int;  (* triggers waiting in the router queue *)
    v_least_loaded : unit -> int option;
        (* lowest-indexed healthy server with minimal believed live
           count, via the O(1)-amortized load index on sharded
           clusters *)
  }

  type decision = Assign of int | Enqueue

  type instance = {
    label : string;
    decide : view -> vcpus:int -> needs_pool:bool -> decision;
    on_completion : view -> server:int -> int list;
    on_rejection : view -> server:int -> int list;
    on_health_change : view -> server:int -> up:bool -> int list;
    on_provision : server:int -> count:int -> unit;
    on_claim_unused : server:int -> unit;
  }

  type t = { p_name : string; p_make : servers:int -> instance }

  let name p = p.p_name

  let instantiate p ~servers = p.p_make ~servers

  let v ~name p_make = { p_name = name; p_make }

  let no_events =
    ( (fun _ ~server:_ -> []),
      (fun _ ~server:_ -> []),
      (fun _ ~server:_ ~up:_ -> []),
      (fun ~server:_ ~count:_ -> ()),
      fun ~server:_ -> () )

  (* The legacy router, verbatim: push every trigger immediately to a
     server chosen from the optimistically-debited mirrors.  Produces
     bit-for-bit the trigger placements the pre-policy cluster made. *)
  let push ?(routing = Warm_first) () =
    v
      ~name:("push-" ^ routing_name routing)
      (fun ~servers ->
        let rr_cursor = ref 0 in
        let least_loaded view =
          match view.v_least_loaded () with
          | Some i -> Assign i
          | None -> Enqueue  (* unreachable: the cluster pre-checks health *)
        in
        let decide view ~vcpus:_ ~needs_pool =
          match routing with
          | Round_robin ->
            (* first healthy server at or after the cursor; the cursor
               always advances past the pick so a recovered server
               rejoins rotation *)
            let rec scan steps =
              if steps >= servers then Enqueue
              else begin
                let i = (!rr_cursor + steps) mod servers in
                if view.v_healthy i then begin
                  rr_cursor := (i + 1) mod servers;
                  Assign i
                end
                else scan (steps + 1)
              end
            in
            scan 0
          | Least_loaded -> least_loaded view
          | Warm_first ->
            if not needs_pool then least_loaded view
            else begin
              (* the least-loaded healthy server among those holding a
                 warm sandbox for the function *)
              let best = ref (-1) in
              for i = 0 to servers - 1 do
                if view.v_healthy i && view.v_warm i > 0 then
                  if !best < 0 || view.v_live i < view.v_live !best then
                    best := i
              done;
              if !best >= 0 then Assign !best else least_loaded view
            end
        in
        let on_completion, on_rejection, on_health_change, on_provision,
            on_claim_unused =
          no_events
        in
        {
          label = "push-" ^ routing_name routing;
          decide;
          on_completion;
          on_rejection;
          on_health_change;
          on_provision;
          on_claim_unused;
        })

  (* Tokens a recovered server restarts with: enough to probe it
     without flooding a post-blackout (pool-less) server, which then
     re-earns capacity one completion at a time. *)
  let pull_restart_window = 2

  (* Pull-based scheduling (Hiku-style): servers hold claim tokens
     mirroring their real free capacity — seeded by provisioning,
     spent per dispatch, earned back per completion — and triggers
     that find no tokens wait in the router queue until an idle server
     claims them.  Because a token only exists when its server just
     proved capacity (a completion landed, or provisioning parked a
     sandbox), stale-mirror misroutes during blackouts disappear: a
     wiped server has no tokens until it recovers, and then only
     [pull_restart_window] of them. *)
  let pull () =
    v ~name:"pull" (fun ~servers ->
        let tokens = Array.make servers 1 in
        (* one baseline token per server so an unprovisioned (cold)
           workload still makes progress: with zero tokens fleet-wide
           and nothing in flight, no completion could ever mint one *)
        let drain view ~server ~grant =
          tokens.(server) <- tokens.(server) + grant;
          let want = min tokens.(server) (view.v_pending ()) in
          if want <= 0 then []
          else begin
            tokens.(server) <- tokens.(server) - want;
            List.init want (fun _ -> server)
          end
        in
        let pick view ok =
          let best = ref (-1) and best_tok = ref 0 in
          for i = 0 to servers - 1 do
            if view.v_healthy i && tokens.(i) > !best_tok && ok i then begin
              best := i;
              best_tok := tokens.(i)
            end
          done;
          !best
        in
        let all _ = true in
        let decide view ~vcpus:_ ~needs_pool =
          let i =
            if needs_pool then begin
              let j = pick view (fun i -> view.v_warm i > 0) in
              if j >= 0 then j else pick view all
            end
            else pick view all
          in
          if i >= 0 then begin
            tokens.(i) <- tokens.(i) - 1;
            Assign i
          end
          else Enqueue
        in
        let earn view ~server =
          if view.v_healthy server then begin
            (* re-sync to the believed free pool rather than
               incrementing: the pool mirror was refreshed to an
               absolute count by this very message (and already
               includes the slot this completion freed), so [+1] would
               double-count it and let tokens outrun real capacity —
               while pure conservation would decay the population,
               because a blackout destroys the tokens its in-flight
               invocations carried (they never complete).  The floor
               of 1 keeps unprovisioned (pool-less) workloads making
               serialized probe progress.  The extra probe under queue
               pressure rebuilds wiped capacity: after a deep blackout
               every pool is empty, so capacity-bound tokens alone
               would pin concurrency near one per server forever —
               one over-commit per completion ramps the fleet back
               exponentially (each probe's cold/restore completion
               parks a fresh sandbox) while never dispatching more
               than twice the proven completion rate.  The probe fires
               only on a concurrency deficit — more triggers waiting
               than the whole fleet has in flight, the deep-wipe
               signature — not during a transient crunch (pool mirrors
               at zero but plenty in flight), where the backlog drains
               at the full completion rate anyway and a probe would
               just buy a needless recovery-ladder hit. *)
            let fleet_live = ref 0 in
            for i = 0 to servers - 1 do
              fleet_live := !fleet_live + view.v_live i
            done;
            let pressure = if view.v_pending () > !fleet_live then 1 else 0 in
            tokens.(server) <- max (view.v_warm server) 1 + pressure;
            drain view ~server ~grant:0
          end
          else []
        in
        {
          label = "pull";
          decide;
          on_completion = earn;
          on_rejection = earn;
          on_health_change =
            (fun view ~server ~up ->
              (* down: in-flight tokens died with the server.  up:
                 restart with a small probe window *)
              tokens.(server) <- 0;
              if up then drain view ~server ~grant:pull_restart_window
              else []);
          on_provision =
            (fun ~server ~count -> tokens.(server) <- tokens.(server) + count);
          on_claim_unused =
            (fun ~server -> tokens.(server) <- tokens.(server) + 1);
        })

  (* Core-granular late binding (Kaffes-style): route on per-vCPU
     occupancy, not invocation counts.  The router mirrors each
     server's busy-vCPU total and prefers the server with the most
     free cores that can hold the trigger's [vcpus] outright; the
     server's scheduler then late-binds each vCPU to the
     shallowest-run-queue CPU at dispatch time. *)
  let core_granular () =
    v ~name:"core" (fun ~servers ->
        let pick view ok =
          (* most free vCPUs; ties broken by fewest live invocations,
             then lowest index *)
          let best = ref (-1) in
          for i = 0 to servers - 1 do
            if view.v_healthy i && ok i then
              if !best < 0 then best := i
              else begin
                let free_i = view.v_total_vcpus - view.v_busy i
                and free_b = view.v_total_vcpus - view.v_busy !best in
                if
                  free_i > free_b
                  || (free_i = free_b && view.v_live i < view.v_live !best)
                then best := i
              end
          done;
          !best
        in
        let decide view ~vcpus ~needs_pool =
          let fits i = view.v_total_vcpus - view.v_busy i >= vcpus in
          let warm i = view.v_warm i > 0 in
          let all _ = true in
          (* tiers: warm holders with room, anyone with room, warm
             holders, anyone — the first non-empty tier wins, so a
             core-saturated fleet still places (and queues server-side)
             rather than rejecting *)
          let i =
            let j = if needs_pool then pick view (fun i -> fits i && warm i) else -1 in
            if j >= 0 then j
            else begin
              let j = pick view fits in
              if j >= 0 then j
              else begin
                let j = if needs_pool then pick view warm else -1 in
                if j >= 0 then j else pick view all
              end
            end
          in
          if i >= 0 then Assign i else Enqueue
        in
        let on_completion, on_rejection, on_health_change, on_provision,
            on_claim_unused =
          no_events
        in
        {
          label = "core";
          decide;
          on_completion;
          on_rejection;
          on_health_change;
          on_provision;
          on_claim_unused;
        })

  let builtins () = [ push (); pull (); core_granular () ]
end

(* How the cluster executes.  [Direct] is the legacy single-engine
   mode: every server shares the caller's engine and the router reads
   live server state synchronously.  [Sharded] partitions the run over
   a {!Shard_engine}: the router is logical shard 0, server [i] is
   shard [i + 1], every router<->server interaction crosses a
   [placement] delay through the shard engine's deterministic
   mailboxes, and the router routes from its own mirrors of server
   state (updated only by those messages, so routing decisions are
   partition-independent). *)
type sharded = {
  se : Shard_engine.t;
  placement : Time.span;
  exec_shards : int;  (* execution tasks for [run] *)
  live_view : int array;  (* router's believed live count per server *)
  li : Load_index.t;
      (* bucketed argmin over [live_view] among healthy servers:
         least-loaded routing without the per-trigger fleet scan *)
  busy_view : int array;  (* router's believed busy vCPUs per server *)
  pool_view : (string, int array) Hashtbl.t;
      (* router's believed warm-pool size per function per server *)
}

type backend = Direct | Sharded of sharded

(* A trigger the policy chose not to place yet: it waits in the
   router-side queue until a server claims it. *)
type pending_trigger = {
  pt_name : string;
  pt_fn_id : int;
  pt_mode : Platform.start_mode;
  pt_on_complete : (int * Platform.record -> unit) option;
  pt_arrival : Time.t;
}

type t = {
  engine : Engine.t;  (* the router's engine (the only engine in Direct) *)
  backend : backend;
  platforms : Platform.t array;
  policy : Policy.instance;
  mutable view : Policy.view;  (* one reusable view; closures read [t] *)
  mutable view_name : string;  (* function under decision, for [v_warm] *)
  mutable view_fn_id : int;  (* its dense id: Direct [v_warm] reads by id *)
  pending : pending_trigger Queue.t;  (* router-side claimable queue *)
  claims : int Queue.t;  (* servers whose claims await resolution *)
  mutable draining : bool;  (* claim-resolution loop re-entrancy guard *)
  e2e : Stats.Quantile.t option;
      (* arrival -> router-observed completion, microseconds *)
  metrics : Metrics.t;  (* fleet-level counters (rejections, blackouts) *)
  faults : Fault.Plan.t;  (* cluster-level plan: the blackout schedule *)
  healthy : bool array;
  mutable healthy_n : int;
  trigger_counts : int array;
  (* Fleet-wide completion log: one packed (slot, server) int per
     completion, in router-observed order.  The slot indexes the
     server platform's trigger-record arena, so the log itself costs
     one word per trigger; readers walk it with [iter_records] /
     [fold_records] and box a row only via [Platform.record_of_slot]. *)
  srv_bits : int;
  log : Int_rows.t;
  mutable direct_sinks : (int -> unit) array;
      (* Direct mode: server [i]'s completion sink, shared by every
         trigger dispatched at its arrival instant ([dispatch_direct]) *)
  mutable rejected : rejection list;  (* newest first *)
}

let dummy_view =
  {
    Policy.v_servers = 0;
    v_healthy = (fun _ -> false);
    v_live = (fun _ -> 0);
    v_warm = (fun _ -> 0);
    v_busy = (fun _ -> 0);
    v_total_vcpus = 0;
    v_pending = (fun () -> 0);
    v_least_loaded = (fun () -> None);
  }

let server_count t = Array.length t.platforms

(* Routing inputs.  Direct mode reads the live server state (the
   legacy synchronous router); sharded mode reads the router's
   mirrors, which change only through the deterministic message
   protocol. *)
let live_of t i =
  match t.backend with
  | Direct -> Platform.live_invocations t.platforms.(i)
  | Sharded s -> s.live_view.(i)

(* The pool-size mirror for [name]; rows exist from [register] on, so
   creation never reads live server state mid-run. *)
let pool_view_entry s ~servers name =
  match Hashtbl.find_opt s name with
  | Some row -> row
  | None ->
    let row = Array.make servers 0 in
    Hashtbl.replace s name row;
    row

let warm_of t i =
  match t.backend with
  | Direct -> Platform.pool_size_id t.platforms.(i) ~fn_id:t.view_fn_id
  | Sharded s ->
    (pool_view_entry s.pool_view ~servers:(server_count t) t.view_name).(i)

(* Least-loaded among healthy servers; [None] when the fleet is down.
   Direct mode scans (its live counts change outside the router's
   control, e.g. on a retry-exhausted abort); sharded mode reads the
   incrementally-maintained index over its own mirrors. *)
let least_loaded_index t =
  match t.backend with
  | Sharded s -> Load_index.argmin s.li
  | Direct ->
    let best = ref None in
    Array.iteri
      (fun i _ ->
        if t.healthy.(i) then
          match !best with
          | Some j when live_of t j <= live_of t i -> ()
          | Some _ | None -> best := Some i)
      t.platforms;
    !best

let make_view t =
  {
    Policy.v_servers = server_count t;
    v_healthy = (fun i -> t.healthy.(i));
    v_live = (fun i -> live_of t i);
    v_warm = (fun i -> warm_of t i);
    v_busy =
      (match t.backend with
      | Direct -> fun i -> Platform.busy_vcpus t.platforms.(i)
      | Sharded s -> fun i -> s.busy_view.(i));
    v_total_vcpus = Scheduler.cpu_count (Platform.scheduler t.platforms.(0));
    v_pending = (fun () -> Queue.length t.pending);
    v_least_loaded = (fun () -> least_loaded_index t);
  }

let server t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.server: index out of range";
  t.platforms.(i)

let policy_name t = t.policy.Policy.label

let engine t = t.engine

let shard_engine t =
  match t.backend with Direct -> None | Sharded s -> Some s.se

let shards t = match t.backend with Direct -> 1 | Sharded s -> s.exec_shards

let metrics t = t.metrics

let healthy t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.healthy: index out of range";
  t.healthy.(i)

let healthy_count t = t.healthy_n

let pending_count t = Queue.length t.pending

let e2e_latencies t = t.e2e

let log_push t ~server ~slot =
  let k = Int_rows.append t.log in
  Int_rows.set t.log k 0 ((slot lsl t.srv_bits) lor server)

(* All server registries intern the same functions in the same order
   ([register] fans out to every server), so any server's ids stand
   for the fleet; server 0 is the canonical lookup. *)
let fn_id t ~name = Platform.fn_id t.platforms.(0) ~name

let function_name t ~fn_id = Platform.function_name t.platforms.(0) ~fn_id

let fn_vcpus t ~fn_id =
  (Function_def.Registry.def (Platform.registry t.platforms.(0)) fn_id)
    .Function_def.vcpus

(* Keep the sharded live mirror and its argmin index in lockstep. *)
let set_live s i v =
  s.live_view.(i) <- v;
  Load_index.set s.li i v

let observe_e2e t ~arrival =
  match t.e2e with
  | None -> ()
  | Some q ->
    Stats.Quantile.add q
      (float_of_int (Time.to_ns (Engine.now t.engine) - Time.to_ns arrival)
      /. 1e3)

let reject t ~reason ~name =
  let rejection =
    { reason; function_name = name; at = Engine.now t.engine }
  in
  t.rejected <- rejection :: t.rejected;
  Metrics.incr t.metrics
    (Printf.sprintf "cluster.rejections.%s" (reject_reason_name reason));
  Rejected rejection

let rec push_claims q = function
  | [] -> ()
  | i :: rest ->
    Queue.push i q;
    push_claims q rest

(* Dispatching and claim resolution are mutually recursive: a
   dispatched claim can reject synchronously (Direct mode), whose
   [on_rejection] hook can emit further claims.  Claims therefore go
   through an explicit queue drained by one non-reentrant loop —
   bounded work per event, no recursion depth to worry about. *)

(* Sharded placement: the router commits to server [i] and the trigger
   crosses the placement delay as a message; the server's outcome
   (completion notification or a dry pool) crosses back the same way.
   All router-side state — the completion log, mirrors, rejection log
   — mutates only on shard 0, in deterministic message-delivery order.
   The completion carries the arena slot, not a boxed record: the
   router logs one packed int and materializes a record only for an
   explicit [on_complete] subscriber. *)
let rec dispatch_sharded t s ~name ~fn_id ~mode ~on_complete ~arrival i =
  t.trigger_counts.(i) <- t.trigger_counts.(i) + 1;
  set_live s i (s.live_view.(i) + 1);
  (match mode with
  | Platform.Warm _ ->
    let row = pool_view_entry s.pool_view ~servers:(server_count t) name in
    if row.(i) > 0 then row.(i) <- row.(i) - 1
  | Platform.Cold | Platform.Restore -> ());
  let vc = fn_vcpus t ~fn_id in
  s.busy_view.(i) <- s.busy_view.(i) + vc;
  let platform = t.platforms.(i) in
  let arrive = Time.add (Engine.now t.engine) s.placement in
  Shard_engine.post s.se ~src:0 ~dst:(i + 1) ~at:arrive (fun server_engine ->
      match
        Platform.trigger_id platform ~fn_id ~mode ~on_complete_slot:(fun slot ->
            (* server side, completion time: capture the pool size the
               sandbox just returned to, then notify the router *)
            let pool_now = Platform.pool_size platform ~name in
            let done_at = Time.add (Engine.now server_engine) s.placement in
            Shard_engine.post s.se ~src:(i + 1) ~dst:0 ~at:done_at (fun _ ->
                log_push t ~server:i ~slot;
                set_live s i (max 0 (s.live_view.(i) - 1));
                (* reconcile the pool mirror by conservation bounded
                   by ground truth: this completion freed exactly one
                   slot (already counted in [pool_now]), and a plain
                   overwrite would erase the optimistic debits of
                   dispatches still in flight, letting the router
                   over-commit a nearly-dry pool *)
                let row =
                  pool_view_entry s.pool_view ~servers:(server_count t) name
                in
                row.(i) <- min (row.(i) + 1) pool_now;
                s.busy_view.(i) <- max 0 (s.busy_view.(i) - vc);
                observe_e2e t ~arrival;
                (match on_complete with
                | None -> ()
                | Some f -> f (i, Platform.record_of_slot platform slot));
                apply_claims t
                  (t.policy.Policy.on_completion t.view ~server:i)))
      with
      | () -> ()
      | exception Platform.No_warm_sandbox _ ->
        (* dry on arrival: the router learns one placement delay
           later and records the typed rejection then *)
        let pool_now = Platform.pool_size platform ~name in
        let back_at = Time.add (Engine.now server_engine) s.placement in
        Shard_engine.post s.se ~src:(i + 1) ~dst:0 ~at:back_at (fun _ ->
            set_live s i (max 0 (s.live_view.(i) - 1));
            s.busy_view.(i) <- max 0 (s.busy_view.(i) - vc);
            (* no slot was freed; the pool proved dry, so cap the
               mirror at the observed truth *)
            let row =
              pool_view_entry s.pool_view ~servers:(server_count t) name
            in
            row.(i) <- min row.(i) pool_now;
            ignore (reject t ~reason:No_warm_capacity ~name);
            apply_claims t (t.policy.Policy.on_rejection t.view ~server:i)));
  Accepted i

(* Direct placement: the server shares the router's engine, so the
   trigger starts at once.  One dispatched at its arrival instant
   completes into the server's shared sink, which reads the arrival
   back from the record ([triggered_at] is that instant); a claimed
   trigger (it arrived earlier) or one with a subscriber carries its
   own closure. *)
and dispatch_direct t ~name ~fn_id ~mode ~on_complete ~arrival i =
  let platform = t.platforms.(i) in
  let on_complete_slot =
    match on_complete with
    | None when Time.to_ns arrival = Time.to_ns (Engine.now t.engine) ->
      t.direct_sinks.(i)
    | None | Some _ ->
      fun slot ->
        log_push t ~server:i ~slot;
        observe_e2e t ~arrival;
        (match on_complete with
        | None -> ()
        | Some f -> f (i, Platform.record_of_slot platform slot));
        apply_claims t (t.policy.Policy.on_completion t.view ~server:i)
  in
  match Platform.trigger_id platform ~fn_id ~mode ~on_complete_slot with
  | () ->
    t.trigger_counts.(i) <- t.trigger_counts.(i) + 1;
    Accepted i
  | exception Platform.No_warm_sandbox _ ->
    (* a typed rejection, not an exception escaping the router: the
       chosen server's pool (and, with degradation off, the whole
       attempt) came up dry *)
    let r = reject t ~reason:No_warm_capacity ~name in
    apply_claims t (t.policy.Policy.on_rejection t.view ~server:i);
    r

and dispatch t ~name ~fn_id ~mode ~on_complete ~arrival i =
  match t.backend with
  | Sharded s -> dispatch_sharded t s ~name ~fn_id ~mode ~on_complete ~arrival i
  | Direct -> dispatch_direct t ~name ~fn_id ~mode ~on_complete ~arrival i

and direct_sink t i slot =
  log_push t ~server:i ~slot;
  observe_e2e t
    ~arrival:
      (Trigger_records.triggered_at
         (Platform.trigger_records t.platforms.(i))
         slot);
  apply_claims t (t.policy.Policy.on_completion t.view ~server:i)

and apply_claims t claimants =
  push_claims t.claims claimants;
  if not t.draining && not (Queue.is_empty t.claims) then begin
    t.draining <- true;
    Fun.protect
      ~finally:(fun () -> t.draining <- false)
      (fun () ->
        while not (Queue.is_empty t.claims) do
          let i = Queue.pop t.claims in
          if not t.healthy.(i) then ()
            (* a claim that raced a blackout: dropped (its token died
               with the server's health transition) *)
          else if Queue.is_empty t.pending then
            t.policy.Policy.on_claim_unused ~server:i
          else begin
            let p = Queue.pop t.pending in
            ignore
              (dispatch t ~name:p.pt_name ~fn_id:p.pt_fn_id ~mode:p.pt_mode
                 ~on_complete:p.pt_on_complete ~arrival:p.pt_arrival i)
          end
        done)
  end

let make ~servers ~policy ~e2e ~topology ~cost ~keep_alive ~seed
    ~faults ~recovery ~ull_count ~engine ~backend ~platform_engine =
  if servers <= 0 then invalid_arg "Cluster.create: servers <= 0";
  let platforms =
    (* each server gets its own derived plan: per-server fault
       sequences depend only on (cluster seed, server index), never on
       how triggers happened to be routed *)
    Array.init servers (fun i ->
        Platform.create ~topology ~cost ?keep_alive ?ull_count
          ~seed:(seed + (97 * i))
          ~faults:(Fault.Plan.derive faults ~index:i)
          ?recovery ~engine:(platform_engine i) ())
  in
  let metrics = Metrics.create () in
  Fault.Plan.attach_metrics faults metrics;
  let srv_bits =
    let b = ref 0 in
    while 1 lsl !b < servers do
      incr b
    done;
    !b
  in
  let policy =
    match policy with Some p -> p | None -> Policy.push ()
  in
  let t =
    {
      engine;
      backend;
      platforms;
      policy = Policy.instantiate policy ~servers;
      view = dummy_view;
      view_name = "";
      view_fn_id = 0;
      pending = Queue.create ();
      claims = Queue.create ();
      draining = false;
      e2e =
        (if e2e then
           Some (Stats.Quantile.create ~quantiles:[| 0.5; 0.99; 0.999 |] ())
         else None);
      metrics;
      faults;
      healthy = Array.make servers true;
      healthy_n = servers;
      trigger_counts = Array.make servers 0;
      srv_bits;
      log = Int_rows.create ~width:1;
      direct_sinks = [||];
      rejected = [];
    }
  in
  t.view <- make_view t;
  (match backend with
  | Direct -> t.direct_sinks <- Array.init servers (fun i -> direct_sink t i)
  | Sharded _ -> ());
  t

let create ?(servers = 4) ?policy ?(e2e = false)
    ?(topology = Topology.r650) ?(cost = Cost_model.firecracker) ?keep_alive
    ?(seed = 42) ?(faults = Fault.Plan.none) ?recovery ?ull_count ~engine () =
  make ~servers ~policy ~e2e ~topology ~cost ~keep_alive ~seed ~faults
    ~recovery ~ull_count ~engine ~backend:Direct
    ~platform_engine:(fun _ -> engine)

let default_placement = Time.span_us 50.0

let create_sharded ?(servers = 4) ?policy
    ?(e2e = false) ?(topology = Topology.r650) ?(cost = Cost_model.firecracker)
    ?keep_alive ?(seed = 42) ?(faults = Fault.Plan.none) ?recovery ?ull_count
    ?(placement = default_placement) ?(shards = 1) ?scheduler ?window () =
  if servers <= 0 then invalid_arg "Cluster.create_sharded: servers <= 0";
  if shards < 1 then invalid_arg "Cluster.create_sharded: shards < 1";
  (* The channel matrix mirrors the topology: every message crosses a
     router<->server link carrying the placement latency, and servers
     never talk to each other directly — leaving those pairs
     unbounded is what lets the adaptive scheduler run each server to
     its own horizon instead of the global minimum. *)
  let channels =
    List.concat
      (List.init servers (fun i ->
           [ (0, i + 1, placement); (i + 1, 0, placement) ]))
  in
  let se =
    Shard_engine.create ~seed ?scheduler ?window ~channels
      ~sources:(servers + 1) ~lookahead:placement ()
  in
  let backend =
    Sharded
      {
        se;
        placement;
        exec_shards = shards;
        live_view = Array.make servers 0;
        li = Load_index.create ~n:servers;
        busy_view = Array.make servers 0;
        pool_view = Hashtbl.create 16;
      }
  in
  make ~servers ~policy ~e2e ~topology ~cost ~keep_alive ~seed ~faults
    ~recovery ~ull_count
    ~engine:(Shard_engine.engine se 0)
    ~backend
    ~platform_engine:(fun i -> Shard_engine.engine se (i + 1))

let mark_down t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.mark_down: index out of range";
  if t.healthy.(i) then begin
    t.healthy.(i) <- false;
    t.healthy_n <- t.healthy_n - 1;
    (match t.backend with
    | Direct -> ()
    | Sharded s ->
      (* the router knows the blackout wipes the server: reset its
         mirrors so routing stops preferring the dead pools the moment
         the server is marked down *)
      set_live s i 0;
      Load_index.remove s.li i;
      s.busy_view.(i) <- 0;
      Hashtbl.iter (fun _ row -> row.(i) <- 0) s.pool_view);
    apply_claims t (t.policy.Policy.on_health_change t.view ~server:i ~up:false)
  end

let mark_up t i =
  if i < 0 || i >= server_count t then
    invalid_arg "Cluster.mark_up: index out of range";
  if not t.healthy.(i) then begin
    t.healthy.(i) <- true;
    t.healthy_n <- t.healthy_n + 1;
    (match t.backend with
    | Direct -> ()
    | Sharded s -> Load_index.add s.li i);
    apply_claims t (t.policy.Policy.on_health_change t.view ~server:i ~up:true)
  end

let register t fn =
  Array.iter (fun p -> Platform.register p fn) t.platforms;
  match t.backend with
  | Direct -> ()
  | Sharded s ->
    ignore
      (pool_view_entry s.pool_view ~servers:(server_count t)
         fn.Function_def.name)

let sync_pool_view t ~name =
  match t.backend with
  | Direct -> ()
  | Sharded s ->
    let row = pool_view_entry s.pool_view ~servers:(server_count t) name in
    Array.iteri
      (fun i p -> row.(i) <- Platform.pool_size p ~name)
      t.platforms

let provision t ~name ~total ~strategy =
  let words0 = Gc.minor_words () in
  for i = 0 to total - 1 do
    let srv = i mod server_count t in
    Platform.provision t.platforms.(srv) ~name ~count:1 ~strategy;
    t.policy.Policy.on_provision ~server:srv ~count:1
  done;
  (* pre-run setup on the coordinating domain: refresh the router's
     mirror from the actual pools before any window runs *)
  sync_pool_view t ~name;
  (* A fleet is long-lived by construction.  When building it filled
     most of the minor heap, tenure it now: left young, it would be
     promoted by the run's first minor collection, which then also
     paces the major collector's marking of it into the run (on a
     32k-sandbox fleet that costs more than twice what one collection
     here does).  A smaller fleet is cheap to promote whenever that
     happens, and collecting here would only tenure other set-up
     state early. *)
  if
    Gc.minor_words () -. words0
    > float_of_int ((Gc.get ()).Gc.minor_heap_size / 2)
  then Gc.minor ()

let pool_size t ~name =
  Array.fold_left (fun acc p -> acc + Platform.pool_size p ~name) 0 t.platforms

let trigger_resolved t ~name ~fn_id ~mode ~on_complete =
  if t.healthy_n = 0 then reject t ~reason:All_servers_down ~name
  else begin
    t.view_name <- name;
    t.view_fn_id <- fn_id;
    let needs_pool =
      match mode with
      | Platform.Warm _ -> true
      | Platform.Cold | Platform.Restore -> false
    in
    let arrival = Engine.now t.engine in
    match
      t.policy.Policy.decide t.view ~vcpus:(fn_vcpus t ~fn_id) ~needs_pool
    with
    | Policy.Assign i -> dispatch t ~name ~fn_id ~mode ~on_complete ~arrival i
    | Policy.Enqueue ->
      Queue.push
        {
          pt_name = name;
          pt_fn_id = fn_id;
          pt_mode = mode;
          pt_on_complete = on_complete;
          pt_arrival = arrival;
        }
        t.pending;
      Queued
  end

let trigger t ~name ~mode ?on_complete () =
  (* resolve the id up front so an unknown function raises before any
     routing side effects, exactly as the per-name path always did *)
  let fn_id = fn_id t ~name in
  trigger_resolved t ~name ~fn_id ~mode ~on_complete

let trigger_id t ~fn_id ~mode ?on_complete () =
  let name = function_name t ~fn_id in
  trigger_resolved t ~name ~fn_id ~mode ~on_complete

(* Batched ingestion: walk the (sorted) batch through a windowed
   cursor.  Each refill pre-schedules the next [window] arrivals on
   the router engine in batch order — the refill event for the
   window's boundary instant is scheduled {e before} the boundary
   trigger itself, so under the engine's FIFO tie-break the next
   window is enqueued before the boundary trigger fires and arrivals
   always fire in batch order.  The event queue therefore holds at
   most [window] pending arrivals instead of the whole trace. *)
let schedule_batch ?(window = 4096) ?on_complete t batch =
  if window < 1 then invalid_arg "Cluster.schedule_batch: window < 1";
  if not (Batch.sorted batch) then
    invalid_arg "Cluster.schedule_batch: batch not sorted";
  let n = Batch.length batch in
  let base = Engine.now t.engine in
  let fire k =
    let fn_id = Batch.fn_id batch k in
    let mode = Platform.mode_of_code (Batch.payload batch k) in
    ignore
      (trigger_resolved t
         ~name:(function_name t ~fn_id)
         ~fn_id ~mode ~on_complete)
  in
  let rec refill start =
    if start < n then begin
      let stop = min n (start + window) in
      (* next refill first: it shares the boundary trigger's instant
         and must win the FIFO tie *)
      if stop < n then
        ignore
          (Engine.schedule_at t.engine
             ~at:(Time.add base (Time.span_ns (Batch.time_ns batch (stop - 1))))
             (fun _ -> refill stop));
      for k = start to stop - 1 do
        ignore
          (Engine.schedule_at t.engine
             ~at:(Time.add base (Time.span_ns (Batch.time_ns batch k)))
             (fun _ -> fire k))
      done
    end
  in
  refill 0

let schedule_faults t ~horizon =
  let outages =
    Fault.Plan.blackouts t.faults ~servers:(server_count t) ~horizon
  in
  (match t.backend with
  | Direct ->
    List.iter
      (fun (server, start, outage) ->
        ignore
          (Engine.schedule t.engine ~after:start (fun _ ->
               mark_down t server;
               let lost = Platform.blackout t.platforms.(server) in
               Metrics.incr t.metrics "cluster.blackouts";
               Metrics.incr t.metrics ~by:lost "cluster.blackout_lost"));
        let back_at =
          Time.span_ns (Time.span_to_ns start + Time.span_to_ns outage)
        in
        ignore
          (Engine.schedule t.engine ~after:back_at (fun _ ->
               mark_up t server;
               Metrics.incr t.metrics "cluster.recoveries")))
      outages
  | Sharded s ->
    (* the whole outage schedule is known up front (blackout schedule
       lead time), so the server-side blackout command is posted
       directly at the outage instant — no lookahead slack needed
       beyond the pre-run horizon — while the router flips health on
       its own timeline at the same instants *)
    List.iter
      (fun (server, start, outage) ->
        let down_at = Time.add (Engine.now t.engine) start in
        ignore
          (Engine.schedule_at t.engine ~at:down_at (fun _ ->
               mark_down t server;
               Metrics.incr t.metrics "cluster.blackouts"));
        Shard_engine.post s.se ~src:0 ~dst:(server + 1) ~at:down_at
          (fun server_engine ->
            let lost = Platform.blackout t.platforms.(server) in
            let note_at = Time.add (Engine.now server_engine) s.placement in
            Shard_engine.post s.se ~src:(server + 1) ~dst:0 ~at:note_at
              (fun _ -> Metrics.incr t.metrics ~by:lost "cluster.blackout_lost"));
        let up_at = Time.add down_at outage in
        ignore
          (Engine.schedule_at t.engine ~at:up_at (fun _ ->
               mark_up t server;
               Metrics.incr t.metrics "cluster.recoveries")))
      outages);
  List.length outages

let run ?until t =
  match t.backend with
  | Direct -> Engine.run ?until t.engine
  | Sharded s ->
    let executor =
      if s.exec_shards <= 1 then None
      else
        (* [shards] persistent strands: the team's round barrier is
           the synchronization barrier, and its happens-before is what
           publishes each round's shard writes back to the
           coordinator.  Strand->domain pinning is stable for the
           life of the team, so per-shard working sets stay warm.
           Called from inside another round (a sweep task on
           [Team.map]), the team runs every strand inline. *)
        let team = Team.shared ~width:s.exec_shards in
        Some (fun job -> Team.run team job)
    in
    Shard_engine.run ?until ~shards:s.exec_shards ?executor s.se

let record_count t = Int_rows.length t.log

let iter_records t f =
  let mask = (1 lsl t.srv_bits) - 1 in
  for k = 0 to Int_rows.length t.log - 1 do
    let packed = Int_rows.get t.log k 0 in
    f (packed land mask) (packed lsr t.srv_bits)
  done

let fold_records t ~init ~f =
  let mask = (1 lsl t.srv_bits) - 1 in
  let acc = ref init in
  for k = 0 to Int_rows.length t.log - 1 do
    let packed = Int_rows.get t.log k 0 in
    acc := f !acc (packed land mask) (packed lsr t.srv_bits)
  done;
  !acc

let rejections t = List.rev t.rejected

let live_invocations t =
  Array.fold_left (fun acc p -> acc + Platform.live_invocations p) 0 t.platforms

let triggers_per_server t = Array.copy t.trigger_counts
