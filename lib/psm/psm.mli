(** P²SM — parallel precomputed sorted merge (paper §4.1).

    Merges a sorted list [A] (a paused sandbox's [merge_vcpus]) into a
    sorted list [B] (the [ull_runqueue]) in O(1) pointer writes, by
    precomputing:

    - {!Index} — the paper's [arrayB]: position [k] → the handle of
      [B]'s node at position [k], so splice points are addressable
      without walking;
    - {!Plan} — the paper's [posA]: a map from splice position in [B]
      to the contiguous sublist of [A] that belongs there.

    Both lists live in one {!Arena_list.arena}, so the splice is plain
    [int]-array surgery and a handle stays valid across the merge (the
    slot is re-owned by the target, not copied).

    The key of an element [a] of [A] is [#{b ∈ B : b ≤ a}]: the
    number of elements of [B] it must be placed after (equal elements
    of [B] keep priority, matching the stable FIFO order of a run
    queue).  Sublists with distinct keys touch disjoint chain cells,
    so the merge needs no mutual exclusion — Algorithm 1's
    parallelism argument — and {!Plan.execute_parallel} really runs
    it on OCaml domains.

    Both structures support the incremental maintenance of §4.1.3:
    an insert/remove on the ull_runqueue is reflected with
    {!Plan.note_target_insert} / {!Plan.note_target_remove} (and
    {!Index.note_insert} / {!Index.note_remove}), and a vCPU added to
    the paused set with {!Plan.note_source_insert}.  The maintenance
    path is in-place over flat [int] arrays and allocates nothing.
    The run-queue layer does not call the target notes: a queue keeps
    its one [Index] fresh, and a resuming sandbox derives its plan from
    it with {!Plan.refill} (see [Horse_sched.Runqueue]).  The target
    notes stay as the eager oracle that derivation is tested against:
    while the queued values do not change, both give the same plan. *)

exception Stale
(** Raised by merge execution when the precomputed structures do not
    match the current lists (a missed incremental update — a bug in
    the caller's bookkeeping). *)

module Index : sig
  type 'a t
  (** The [arrayB] of the paper: direct node addressing for a target
      list. *)

  val build : 'a Arena_list.t -> 'a t
  (** Snapshot the handle array of [B] (O(|B|)). *)

  val target : 'a t -> 'a Arena_list.t

  val length : 'a t -> int
  (** Number of indexed nodes; must equal [length (target t)] for the
      index to be fresh. *)

  val anchor : 'a t -> int -> Arena_list.handle
  (** [anchor t k] is the node to splice after for key [k]:
      {!Arena_list.nil} denotes the list head (key 0), otherwise the
      [k]-th node (1-based).  @raise Invalid_argument if [k] is
      outside [0, length t]. *)

  val note_insert : 'a t -> pos:int -> Arena_list.handle -> unit
  (** Reflect an insertion into [B]: the new node now sits at 0-based
      position [pos] (the step count returned by
      {!Arena_list.insert_sorted}). *)

  val note_remove : 'a t -> pos:int -> unit
  (** Reflect a removal from [B] at 0-based position [pos]. *)

  val rebuild : 'a t -> unit
  (** Re-snapshot from the target (used after a merge grows [B]). *)

  val find_key : 'a t -> 'a -> int
  (** [find_key t a] is [#{b ∈ B : b ≤ a}] by binary search over the
      handle array (O(log |B|)) — the fast variant of the paper's
      O(n) position computation. *)

  val is_consistent : 'a t -> bool
  (** True iff the array matches a fresh walk of the target. *)
end

module Plan : sig
  type 'a t
  (** The [posA] of the paper, for one (source, target) pair.  Stored
      as flat parallel arrays (key, head handle, tail handle, count
      per segment), so incremental maintenance is in-place int
      arithmetic. *)

  type stats = {
    threads : int;  (** segments spliced = merge threads used *)
    spliced : int;  (** elements transferred *)
    max_segment : int;  (** longest sublist (0 if empty source) *)
  }

  val build : source:'a Arena_list.t -> index:'a Index.t -> 'a t
  (** The precompute phase, by a linear two-pointer scan
      (O(|A| + |B|)).  Source and target must share an arena. *)

  val build_binary : source:'a Arena_list.t -> index:'a Index.t -> 'a t
  (** Same result via per-element binary search (O(|A|·log |B|));
      faster when [A] is tiny next to [B].  Ablation material. *)

  val create : capacity:int -> 'a Arena_list.t -> 'a t
  (** An empty plan over [source], to be filled by {!refill}: one
      allocation a paused sandbox keeps for its whole life.  A plan
      never has more segments than [source] has elements, so
      [capacity] = the source's size is enough; a plan that needs more
      grows its arrays.
      @raise Invalid_argument if [capacity < 0]. *)

  val refill : 'a t -> index:'a Index.t -> unit
  (** Recompute the plan in place from the source and [index] as they
      are now, by per-element {!Index.find_key} (O(|A|·log |B|)), and
      make it executable again.  Allocates nothing once the segment
      arrays have grown to the source's size. *)

  val key_count : 'a t -> int

  val total : 'a t -> int
  (** Elements covered by the plan (must equal [|A|] at merge time). *)

  val keys : 'a t -> int list
  (** Sorted splice keys (for inspection and tests). *)

  val keys_counts : 'a t -> int array * int array
  (** Fresh copies of the (key, element count) pairs, segment order
      (for inspection and tests: two plans with equal pairs splice
      the same sublists at the same keys). *)

  val segments_snapshot : 'a t -> (int * Arena_list.handle list) list
  (** The current (key, nodes) decomposition, keys ascending and nodes
      in source order (test/debug inspection). *)

  val note_target_insert : 'a t -> pos:int -> 'a -> unit
  (** The target gained an element with value [v] at 0-based position
      [pos]: shifts affected keys and splits the straddling segment.
      Call for every paused plan whenever the ull_runqueue grows. *)

  val note_target_remove : 'a t -> pos:int -> unit
  (** The target lost the element at 0-based position [pos]: shifts
      keys down and coalesces the two segments that become
      adjacent. *)

  val note_source_insert :
    'a t -> index:'a Index.t -> node:Arena_list.handle -> unit
  (** A node was just inserted (sorted) into the source list; extends
      or creates the segment its value belongs to. *)

  val note_source_remove : 'a t -> node:Arena_list.handle -> unit
  (** A node is about to be removed from the source list.  Must be
      called {e before} unlinking it.
      @raise Not_found if the node is not covered by the plan. *)

  val execute :
    'a t -> index:'a Index.t -> source:'a Arena_list.t -> stats
  (** The merge phase (Algorithm 1): two chain writes per key, then
      one O(|A| + |B|) order-buffer commit ({!Arena_list.Unsafe.merge_commit})
      — per merge, not per subscriber.  Consumes the source (left
      empty; its handles stay valid, re-owned by the target), grows
      the target, invalidates the plan and leaves the index stale
      (call {!Index.rebuild}).
      @raise Stale if index or plan do not match the lists. *)

  val execute_parallel :
    domains:int ->
    'a t ->
    index:'a Index.t ->
    source:'a Arena_list.t ->
    stats
  (** Same, splicing segments from up to [domains] parallel strands
      of the shared {!Horse_parallel.Team} of that width — the
      no-mutual-exclusion claim, executed for real, without a
      spawn/join per merge.
      [domains = 1] splices inline.
      @raise Invalid_argument if [domains < 1]. *)

  val is_consistent :
    'a t -> index:'a Index.t -> source:'a Arena_list.t -> bool
  (** True iff rebuilding from scratch yields this plan — the
      incremental-maintenance correctness oracle used by tests. *)
end
