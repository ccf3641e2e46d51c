(** Store for completed-invocation records.

    Seven int fields per row (fn-id, start-mode code, and the five
    time fields as integer nanoseconds), kept in {!Int_rows} chunks and
    addressed by slot index.  Appending writes seven ints and boxes
    nothing, so the per-trigger record cost is 7 words flat — the
    replacement for [Platform]'s old [record list], whose cons + boxed
    record + string name made 100M-trigger runs O(run length) in GC
    pressure.  Growth adds 1024-row chunks and never copies them, so
    it leaves no outgrown columns behind as garbage.

    The mode column carries owner-defined dense codes (the platform
    maps its [start_mode] onto them); the fn-id column carries
    {!Function_def.Registry} ids.  Handles pack (generation, slot)
    into one immediate int; {!clear} bumps the generation so stale
    handles raise instead of aliasing recycled slots. *)

type t

type handle
(** An immediate (generation, slot) reference to one appended row. *)

val create : unit -> t
(** An empty store. *)

val length : t -> int
(** Rows appended since the last {!clear} — append order is
    completion order. *)

val append :
  t ->
  fn_id:int ->
  mode:int ->
  triggered_at:Horse_sim.Time_ns.t ->
  init:Horse_sim.Time_ns.span ->
  exec:Horse_sim.Time_ns.span ->
  preemption:Horse_sim.Time_ns.span ->
  completed_at:Horse_sim.Time_ns.t ->
  handle
(** Append one row; allocation-free except when a chunk is added. *)

val clear : t -> unit
(** Drop every row (keeping the chunks for reuse) and invalidate all
    outstanding handles. *)

val slot : t -> handle -> int
(** The row index behind a handle.
    @raise Invalid_argument if the handle predates a {!clear}. *)

(** {2 Column reads} — all O(1), allocation-free, by slot index
    ([0 .. length - 1]).
    @raise Invalid_argument on an out-of-range slot. *)

val fn_id : t -> int -> int

val mode_code : t -> int -> int

val triggered_at : t -> int -> Horse_sim.Time_ns.t

val init : t -> int -> Horse_sim.Time_ns.span

val exec : t -> int -> Horse_sim.Time_ns.span

val preemption : t -> int -> Horse_sim.Time_ns.span

val completed_at : t -> int -> Horse_sim.Time_ns.t

val total_ns : t -> int -> int
(** init + exec + preemption, in nanoseconds — the end-to-end latency
    every experiment aggregates. *)

val iter : t -> (int -> unit) -> unit
(** Apply to every slot index in append (= completion) order. *)

val fold : t -> init:'a -> f:('a -> int -> 'a) -> 'a
