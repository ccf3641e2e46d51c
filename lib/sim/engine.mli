(** The discrete-event simulation engine.

    A single-threaded, deterministic event loop: callbacks are fired
    in timestamp order (FIFO among equal timestamps), each callback
    may schedule further events, and the virtual clock only moves when
    the loop advances to the next event.  All HORSE experiments run on
    this engine, so a given seed always reproduces the same run. *)

type t
(** A simulation instance: clock + event queue + root RNG. *)

type event_handle
(** Allows cancelling a scheduled callback. *)

val null_handle : event_handle
(** A handle that names no event: {!cancel} on it returns [false].
    Fills handle slots that hold nothing yet. *)

val create : ?seed:int -> unit -> t
(** A fresh simulation at time {!Time_ns.zero}.  [seed] defaults to 42. *)

val now : t -> Time_ns.t
(** The current virtual time. *)

val rng : t -> Rng.t
(** The root random stream of this simulation. *)

val schedule : t -> after:Time_ns.span -> (t -> unit) -> event_handle
(** [schedule t ~after f] runs [f] at [now t + after]. *)

val schedule_at : t -> at:Time_ns.t -> (t -> unit) -> event_handle
(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)

val cancel : t -> event_handle -> bool
(** Cancel a pending callback; [false] if it already ran. *)

val pending : t -> int
(** The number of callbacks still scheduled. *)

val next_time : t -> Time_ns.t option
(** The timestamp of the earliest pending callback, if any.  Used by
    {!Shard_engine} to compute the global next epoch window. *)

val events_fired : t -> int
(** Callbacks fired so far over the life of the engine — the drained
    event count {!Shard_engine} reports per shard. *)

val run : ?until:Time_ns.t -> t -> unit
(** Drive the loop until the queue drains, or until the first event
    strictly after [until] (which remains queued; the clock is left at
    [until]).  Re-entrant calls are a bug and raise
    [Invalid_argument] naming the current virtual time. *)

val step : t -> bool
(** Fire exactly the next event; [false] if the queue was empty. *)
