(** A per-CPU run queue: credit-sorted vCPUs + tracked load.

    This is the object both of the paper's hot operations act on:
    step ④ inserts vCPUs into its sorted list, step ⑤ updates its
    lock-protected load.  A run queue can be reserved as an
    [ull_runqueue] (§4.1.3): only uLL sandboxes land there, its
    timeslice is capped at 1 µs, and paused sandboxes {e subscribe}
    to it until they resume, their P²SM plans ([posA]) being derived
    from its [arrayB] then.

    The queue is an {!Horse_psm.Arena_list}: removals are O(1), and
    every structural mutation still reports the nodes the boxed
    oracle would have walked (for cost accounting).  An ull queue owns
    the one [arrayB] ({!Horse_psm.Psm.Index}) its paused sandboxes
    plan against, and keeps it fresh on every mutation.

    Plan maintenance is counted, not performed.  While sandboxes are
    subscribed, each mutation adds the subscriber count to the shared
    [events] counter — the deliveries an eager per-mutation fan-out
    would make, which the simulation charges as maintenance cost — and
    the queue touches no plan.  {!catch_up}, called when a paused
    sandbox resumes, derives its [posA] from [arrayB] as it is then.
    That is the plan eager maintenance would hold, because no library
    path changes a queued vCPU's credit while sandboxes are subscribed
    (credit2's reset runs only on executor-driven queues, which no
    VMM pauses against).  Normal queues keep an empty index.

    A normal queue made by a {!Scheduler} is also a leaf of the
    scheduler's {!Load_tree}, keyed by (tracked load, length).  Every
    mutator below that changes either ({!enqueue}, {!dequeue},
    {!pop_front}, {!apply_merge}, the [track_*] load updates)
    refreshes that leaf itself, and the tracker is not handed out, so
    no path can change a key behind the tree's back.  Cost model: a
    change to a normal queue adds one leaf-to-root refresh, O(log
    cpus) with no allocation; a change to an ull queue, which is no
    leaf, adds one comparison and never touches the tree. *)

type t

type kind =
  | Normal  (** general-purpose queue *)
  | Ull  (** reserved for uLL sandboxes, 1 µs timeslice *)

type subscription

val create :
  ?arena:Vcpu.t Horse_psm.Arena_list.arena ->
  ?tree:Load_tree.t ->
  ?kind:kind ->
  cpu:Horse_cpu.Topology.cpu_id ->
  id:int ->
  unit ->
  t
(** [arena] shares slot storage between queues (the scheduler passes
    one arena for all its queues, which is what lets P²SM splice a
    paused sandbox's list into a queue); by default the queue gets a
    private arena.  [tree] makes the queue leaf [id] of that tree,
    present while the queue is [Normal]; by default the queue is in
    no tree.
    @raise Invalid_argument if [id] is not a leaf of [tree]. *)

val id : t -> int

val cpu : t -> Horse_cpu.Topology.cpu_id

val kind : t -> kind

val is_ull : t -> bool

val set_kind : t -> kind -> unit
(** Re-purpose the queue (reservation happens before any workload
    runs).  Turning [Ull] drops the queue's tree leaf; turning back
    [Normal] restores it.
    @raise Invalid_argument if the queue is not empty. *)

val timeslice : t -> Horse_sim.Time_ns.span
(** 1 µs for [Ull] queues (§4.1.3), 10 ms for [Normal] ones (a
    credit2-like default). *)

val length : t -> int

val queue : t -> Vcpu.t Horse_psm.Arena_list.t
(** The underlying sorted list. *)

val arena : t -> Vcpu.t Horse_psm.Arena_list.arena
(** The slot arena backing this queue (shared across a scheduler). *)

val load : t -> float
(** The tracked load ({!Load_tracking.load}). *)

val utilisation : t -> float
(** {!Load_tracking.utilisation} of the tracked load. *)

val track_enqueue : t -> unit
(** One vanilla per-vCPU load update ({!Load_tracking.on_enqueue}). *)

val track_enqueue_coalesced :
  t -> Horse_coalesce.Coalesce.Precomputed.t -> unit
(** One coalesced update for a whole sandbox
    ({!Load_tracking.on_enqueue_coalesced}). *)

val track_dequeue : t -> unit
(** A removed vCPU sheds its load ({!Load_tracking.on_dequeue}). *)

val index : t -> Vcpu.t Horse_psm.Psm.Index.t
(** The queue's [arrayB], always fresh: resuming sandboxes derive
    their plans from it ({!catch_up}) and {!apply_merge} splices
    through it.
    @raise Invalid_argument on a [Normal] queue, which keeps none. *)

val enqueue : t -> Vcpu.t -> Horse_psm.Arena_list.handle * int
(** Sorted insert (step ④ for one vCPU).  Returns the handle (the
    caller keeps it to dequeue later) and the nodes walked.  Marks
    the vCPU [Queued] and counts the insert for the subscribers.  Does {e not} touch the
    load — the resume path chooses vanilla or coalesced load updates
    separately. *)

val dequeue : t -> Horse_psm.Arena_list.handle -> int
(** Unlink a previously enqueued node; returns the nodes the oracle
    would have walked (= its position).  Marks the vCPU [Offline] and
    counts the removal for the subscribers.
    @raise Not_found if the node is not on this queue. *)

val pop_front : t -> Vcpu.t option
(** Scheduler pick: the least-credit vCPU, removed from the queue
    (counted as a removal at position 0). *)

val apply_merge :
  t ->
  plan:Vcpu.t Horse_psm.Psm.Plan.t ->
  source:Vcpu.t Horse_psm.Arena_list.t ->
  Horse_psm.Psm.Plan.stats * Horse_psm.Arena_list.handle array
(** The P²SM merge of a resuming sandbox's [merge_vcpus] into this
    ull queue, through its {!index}.  The merge is counted (and
    [arrayB] updated) as one insert per spliced vCPU, phrased as
    sequential inserts; the resuming sandbox must {!catch_up} first.
    All spliced vCPUs are marked [Queued].  Also returns the spliced
    handles (source order) so the resumer can record its placements.
    @raise Invalid_argument if [source] lives in another arena or the
    queue is not an ull queue.
    @raise Horse_psm.Psm.Stale as {!Horse_psm.Psm.Plan.execute}. *)

val subscribe : t -> events:int ref -> subscription
(** Attach a paused sandbox.  From here on every mutation adds the
    subscriber count to [events] (the deliveries an eager fan-out
    would make); all subscribers of a queue share one counter.
    @raise Invalid_argument if [events] is not the counter the current
    subscribers use. *)

val catch_up : t -> subscription -> Vcpu.t Horse_psm.Psm.Plan.t -> unit
(** Unsubscribe, and refill [plan] (over the sandbox's source list)
    from {!index} as it is now ({!Horse_psm.Psm.Plan.refill}): the
    plan is fresh and ready for {!apply_merge}.
    @raise Invalid_argument if the subscription is not live. *)

val unsubscribe : t -> subscription -> unit
(** Drop a subscription (teardown of a paused sandbox).  Idempotent. *)

val subscriber_count : t -> int
