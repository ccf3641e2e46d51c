(** Sandboxes: the (micro)VMs a FaaS platform runs functions in.

    A sandbox owns a fixed set of vCPUs and memory.  Its lifecycle is

    {v Created ──boot──▶ Running ◀──resume── Paused
                            └───────pause──────┘ v}

    plus [Stopped] (destroyed) and [Crashed] (killed by an injected
    fault; a crashed sandbox is never reused — the platform's
    fallback ladder starts a fresh one).  While [Paused] under a
    HORSE-family strategy it uses the fast-resume state of §4.1.3 /
    §4.2.2: the pre-sorted [merge_vcpus] list, the P²SM plan ([posA])
    against its assigned ull_runqueue's [arrayB], the run-queue
    subscription that counts the maintenance the plan would receive,
    and the coalesced load-update constants.  The list and the plan
    are created at the sandbox's first such pause and kept for its
    whole life: {!Vmm.pause} refills the list, {!Vmm.resume} refills
    the plan from [arrayB] and merges the list away.  This module
    only stores that state. *)

type state = Created | Booting | Running | Paused | Stopped | Crashed

type strategy =
  | Vanilla  (** the unmodified resume path (§3.1) *)
  | Ppsm  (** P²SM merge, vanilla load updates (ablation) *)
  | Coal  (** vanilla merge, coalesced load update (ablation) *)
  | Horse  (** P²SM + coalescing (§4) *)

val strategy_name : strategy -> string

val strategy_count : int

val strategy_code : strategy -> int
(** Dense code in \[0, {!strategy_count}): index per-strategy state
    (metric handles, tables) without hashing the name. *)

val strategies : strategy array
(** All strategies, indexed by {!strategy_code}.  Do not mutate. *)

type placement = {
  vcpu : Horse_sched.Vcpu.t;
  node : Horse_psm.Arena_list.handle;
  queue : Horse_sched.Runqueue.t;
}
(** Where one vCPU currently sits (the handle is live on [queue]). *)

type horse_state = {
  merge_vcpus : Horse_sched.Vcpu.t Horse_psm.Arena_list.t;
      (** the sandbox's vCPUs, pre-sorted by the scheduler's key, in
          the scheduler's arena so the merge can splice them (empty
          while the sandbox runs) *)
  plan : Horse_sched.Vcpu.t Horse_psm.Psm.Plan.t;
      (** posA over [merge_vcpus], derived from the queue's arrayB
          ({!Horse_sched.Runqueue.index}) when the sandbox resumes *)
  precomputed : Horse_coalesce.Coalesce.Precomputed.t;
      (** the §4.2.2 constants for the sandbox's vCPU count (applied
          by [Horse], not by [Ppsm]'s vanilla load path) *)
  mutable ull_queue : Horse_sched.Runqueue.t;  (** assigned at each pause *)
  mutable subscription : Horse_sched.Runqueue.subscription;
      (** live while paused on [ull_queue] *)
}
(** Created by the sandbox's first HORSE-family pause, then reused. *)

type t

val create :
  id:int -> vcpus:int -> memory_mb:int -> ?ull:bool -> unit -> t
(** A sandbox in [Created] state.  [ull] (default false) marks it as
    hosting a uLL workload, hence eligible for ull_runqueues.
    @raise Invalid_argument if [vcpus <= 0] or [memory_mb <= 0]. *)

val id : t -> int

val vcpus : t -> Horse_sched.Vcpu.t array

val vcpu_count : t -> int

val memory_mb : t -> int

val is_ull : t -> bool

val state : t -> state

val set_state : t -> state -> unit

val placements : t -> placement list
(** Current vCPU placements ([] unless Running). *)

val set_placements : t -> placement list -> unit

val pause_strategy : t -> strategy option
(** The strategy recorded by the last pause, if paused. *)

val set_pause_strategy : t -> strategy option -> unit

val paused_values : t -> Horse_sched.Vcpu.t list
(** vCPU values stashed by a vanilla-family pause (resume re-inserts
    them one by one). *)

val set_paused_values : t -> Horse_sched.Vcpu.t list -> unit

val coal_precomputed : t -> Horse_coalesce.Coalesce.Precomputed.t option
(** The §4.2.2 constants for a [Coal]-strategy pause. *)

val set_coal_precomputed :
  t -> Horse_coalesce.Coalesce.Precomputed.t option -> unit

val horse_state : t -> horse_state option

val set_horse_state : t -> horse_state option -> unit

val horse_memory_footprint_bytes : t -> int
(** Estimated bytes held by the P²SM structures while paused (0 when
    not paused under P²SM) — the §5.2 memory-overhead figure.  Refills
    the plan from the queue's [arrayB] to size it. *)

val pp : Format.formatter -> t -> unit
