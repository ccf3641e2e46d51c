(** The persistent domain team: the simulator's one domain runtime.

    A team runs one strand-indexed job across a fixed set of domains,
    round after round: [run t f] executes [f w] for every strand [w]
    in [0 .. width - 1] (strand 0 on the calling domain, the rest each
    pinned to its own persistent domain) and returns only when every
    strand has finished.  Releasing a round is a single atomic
    increment of the round counter — a sense-reversing barrier with
    the round number as the sense — so a round allocates nothing and
    costs no semaphore traffic, which is what makes the thousands of
    short synchronization rounds of [Horse_sim.Shard_engine]
    affordable.  {!map} fans an irregular batch over one such round:
    every strand claims the next unclaimed item until none is left.

    Strand [w] always executes on the same domain for the life of the
    team, so per-strand working sets stay cache-warm across rounds.
    [run] establishes the usual happens-before: writes by the
    coordinator before [run] are visible to every strand, and writes
    by the strands inside [f] are visible to the coordinator after
    [run] returns.  Idle strands spin a short budget, then park on a
    condition variable, so an over-subscribed host blocks instead of
    busy-waiting.

    Spawned workers are capped at the cores actually available
    ([Domain.recommended_domain_count () - 1]); strands beyond the cap
    run on the calling domain, after strand 0, in ascending order.  In
    particular a single-core host spawns no workers at all and [run]
    executes every strand inline — forcing parked domains through a
    barrier on a timeshared core pays a context switch per worker per
    round and can never overlap any work.  The job contract is indexed
    by strand, never by domain, so results are identical for any
    split.

    A [run] or [map] started from inside a running round — of this or
    any other team — runs all its strands inline on the calling
    domain, so tasks may nest fan-outs freely: a nested call never
    becomes a second coordinator of a team and cannot deadlock.

    If strands raise, the exception of the lowest-numbered strand is
    re-raised after the barrier — independent of scheduling. *)

type t

val create : width:int -> unit -> t
(** A team of [width] strands backed by
    [min (width - 1) (recommended_domain_count () - 1)] spawned
    domains (none for [width = 1], where {!run} degenerates to [f 0]
    inline).
    @raise Invalid_argument if [width < 1]. *)

val width : t -> int

val domains : t -> int
(** Worker domains actually spawned ([0] on a single-core host). *)

val run : t -> (int -> unit) -> unit
(** One barrier-delimited round: run [f w] on every strand and wait
    for all of them.  Outside a round it must only be called from one
    coordinating domain at a time; inside a round it runs every strand
    inline, in ascending order.
    @raise Invalid_argument if the team is shut down. *)

val map : t -> f:(int -> 'a -> 'b) -> 'a list -> 'b list
(** [map t ~f xs] is [List.mapi f xs], fanned over one round: each
    strand claims the next item index from a shared atomic counter and
    writes that item's result slot, so results come back in list order
    whatever the schedule.  Tasks must close over their inputs.  Every
    item runs even if another fails; the exception of the
    lowest-indexed failing item is then re-raised.  At width 1 this is
    literally [List.mapi f xs].
    @raise Invalid_argument if the team is shut down. *)

val map_seeded :
  t -> seed:int -> f:(rng:Horse_sim.Rng.t -> int -> 'a -> 'b) ->
  'a list -> 'b list
(** Like {!map}, but item [i] also receives a private RNG derived from
    [(seed, i)] with {!Horse_sim.Rng.derive}: per-item streams that
    depend neither on the width nor on the schedule. *)

val rounds : t -> int
(** Rounds released so far (lifetime of the team). *)

val barrier_wait_ns : t -> int
(** Wall-clock nanoseconds the coordinator has spent waiting at the
    join barrier, accumulated over all rounds — the direct price of
    synchronization, as opposed to the work inside the rounds. *)

val shutdown : t -> unit
(** Join and release the worker domains.  Idempotent. *)

val with_team : width:int -> (t -> 'a) -> 'a
(** [create], run [f], [shutdown] — exception-safe. *)

val shared : width:int -> t
(** The process-wide cached team for [width], spawned on first use and
    re-created if it has been shut down.  Never shut one of these down
    while another user might hold it. *)

val default_width : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1: the default
    [--jobs] of the command-line tools. *)
