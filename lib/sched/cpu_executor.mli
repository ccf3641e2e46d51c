(** Executing vCPU work on simulated CPUs, through the run queues.

    The resume-path experiments only need queue *structure*; this
    module adds the time dimension: work submitted for a vCPU runs on
    its run queue's CPU under credit2 scheduling — pick the
    least-credit vCPU, run one timeslice, burn credit, re-enqueue if
    work remains.  Because re-enqueueing goes through
    {!Runqueue.enqueue}, the queue logs every change for the paused
    sandboxes' P²SM plans while real work churns it.

    This is what makes the ull_runqueue's 1 µs timeslice (§4.1.3)
    observable: on a 1 µs-slice queue a sub-µs function sneaks past a
    long-running task after at most one slice, while on a normal
    queue it waits for the incumbent's full slice. *)

type t

val create :
  engine:Horse_sim.Engine.t -> scheduler:Scheduler.t -> unit -> t
(** One executor per server.  Context-switch cost between slices is
    taken from the engine-independent default of 1.2 µs; see
    {!create_with_context_switch}. *)

val create_with_context_switch :
  engine:Horse_sim.Engine.t ->
  scheduler:Scheduler.t ->
  context_switch:Horse_sim.Time_ns.span ->
  unit ->
  t

val submit :
  t ->
  queue:Runqueue.t ->
  vcpu:Vcpu.t ->
  work:Horse_sim.Time_ns.span ->
  on_done:(Horse_sim.Time_ns.t -> unit) ->
  unit
(** Enqueue [vcpu] on [queue] with [work] to execute; [on_done] fires
    at the virtual instant the work completes.  The vCPU must not
    already have work outstanding.
    @raise Invalid_argument on duplicate submission or zero work. *)

val busy : t -> cpu:Horse_cpu.Topology.cpu_id -> bool
(** Whether the CPU is currently running a slice. *)

val outstanding : t -> int
(** Submitted work items not yet completed. *)
