(** The pending-event set of the discrete-event engine.

    Events are ordered by timestamp; events scheduled for the same
    instant fire in FIFO order of their scheduling (a sequence number
    breaks ties), which keeps runs deterministic. *)

type 'a t
(** A queue of payloads of type ['a] tagged with firing times. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val null_handle : handle
(** Names no event: {!cancel} on it returns [false]. *)

val create : unit -> 'a t

val schedule : 'a t -> at:Time_ns.t -> 'a -> handle
(** Enqueue [payload] to fire at [at].  Scheduling in the past is the
    caller's bug and raises [Invalid_argument] when popped before a
    later event (the queue itself accepts any timestamp). *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] prevents the event from firing.  Returns [false] if
    it already fired or was already cancelled.  Near-horizon events
    are tombstoned in O(1); far-future events are removed from the
    heap by a sift, O(log n) with no allocation. *)

val next_time : 'a t -> Time_ns.t option
(** The firing time of the earliest live event. *)

val take_until : 'a t -> limit:Time_ns.t option -> none:'a -> 'a
(** Remove the earliest live event firing at or before [limit] ([None]
    means no bound) and return its payload, or return [none] when no
    such event is queued (events beyond the limit stay queued).  The
    popped event's timestamp is read back with {!popped_at}.  Nothing
    is allocated, so a run loop that compares the result against its
    own sentinel with [==] pops for free. *)

val popped_at : 'a t -> Time_ns.t
(** The timestamp of the event the last successful pop removed (a
    late event, scheduled before an earlier pop, reports its own
    time); {!Time_ns.zero} before the first pop. *)

val pop : 'a t -> (Time_ns.t * 'a) option
(** Remove and return the earliest live event. *)

val pop_until : 'a t -> limit:Time_ns.t option -> (Time_ns.t * 'a) option
(** [pop_until q ~limit] is [pop q] restricted to events firing at or
    before [limit] ([None] means no bound).  The earliest-event search
    and the removal are fused into one pass, so a run loop pays a
    single skim per event instead of one for the peek and one for the
    pop.  Events beyond the limit stay queued. *)

val length : 'a t -> int
(** The number of live (non-cancelled) events. *)

val is_empty : 'a t -> bool
