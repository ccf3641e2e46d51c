module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Time = Horse_sim.Time_ns

type kind = Normal | Ull

type subscription = int

type t = {
  id : int;
  cpu : Horse_cpu.Topology.cpu_id;
  mutable kind : kind;
  queue : Vcpu.t Al.t;
  tracker : Load_tracking.t;
  (* the scheduler's normal-queue argmin, and this queue's leaf in it:
     [leaf] is -1 while the queue is an ull queue (no leaf) or was made
     outside a scheduler ([slot] = -1, an empty tree) *)
  tree : Load_tree.t;
  slot : int;
  mutable leaf : int;
  (* arrayB over [queue], kept fresh on ull queues only (a normal
     queue's stays empty: set_kind requires an empty queue) *)
  index : Vcpu.t Psm.Index.t;
  (* live subscription ids, ascending, in [sub_ids.(0 .. nsubs-1)] *)
  mutable sub_ids : int array;
  mutable nsubs : int;
  mutable next_subscription : int;
  mutable events : int ref;
}

let create ?arena ?tree ?(kind = Normal) ~cpu ~id () =
  let arena =
    match arena with
    | Some arena -> arena
    | None -> Al.create_arena ~compare:Vcpu.compare_credit ()
  in
  let tree, slot =
    match tree with
    | None -> (Load_tree.create 0, -1)
    | Some tree ->
      if id < 0 || id >= Load_tree.size tree then
        invalid_arg "Runqueue.create: id outside the tree";
      (tree, id)
  in
  let queue = Al.create arena in
  let tracker = Load_tracking.create () in
  let leaf = if kind = Normal then slot else -1 in
  if leaf >= 0 then Load_tree.attach tree leaf tracker ~length:0;
  {
    id;
    cpu;
    kind;
    queue;
    tracker;
    tree;
    slot;
    leaf;
    index = Psm.Index.build queue;
    sub_ids = [||];
    nsubs = 0;
    next_subscription = 0;
    events = ref 0;
  }

let id t = t.id

let cpu t = t.cpu

let kind t = t.kind

let is_ull t = t.kind = Ull

let set_kind t kind =
  if not (Al.is_empty t.queue) then
    invalid_arg "Runqueue.set_kind: queue not empty";
  t.kind <- kind;
  match kind with
  | Ull ->
    if t.leaf >= 0 then Load_tree.detach t.tree t.leaf;
    t.leaf <- -1
  | Normal ->
    if t.leaf < 0 && t.slot >= 0 then begin
      t.leaf <- t.slot;
      Load_tree.attach t.tree t.leaf t.tracker ~length:0
    end

let timeslice t =
  match t.kind with Ull -> Time.span_us 1.0 | Normal -> Time.span_ms 10.0

let length t = Al.length t.queue

let queue t = t.queue

let arena t = Al.arena t.queue

(* Bring this queue's leaf up to date after its load or length
   changed.  An ull queue has no leaf: one comparison, and the tree is
   never touched. *)
let refresh t =
  if t.leaf >= 0 then
    Load_tree.refresh t.tree t.leaf ~length:(Al.length t.queue)

let load t = Load_tracking.load t.tracker

let utilisation t = Load_tracking.utilisation t.tracker

let track_enqueue t =
  Load_tracking.on_enqueue t.tracker;
  refresh t

let track_enqueue_coalesced t pre =
  Load_tracking.on_enqueue_coalesced t.tracker pre;
  refresh t

let track_dequeue t =
  Load_tracking.on_dequeue t.tracker;
  refresh t

let index t =
  if t.kind <> Ull then invalid_arg "Runqueue.index: not an ull_runqueue";
  t.index

let subscriber_count t = t.nsubs

(* One mutation: counted once per subscriber, the deliveries an
   eager per-mutation fan-out would make.  Nothing is replayed: a
   resuming subscriber derives its plan from [index] (see [catch_up]). *)
let note_insert t ~pos node =
  if t.kind = Ull then Psm.Index.note_insert t.index ~pos node;
  if t.nsubs > 0 then t.events := !(t.events) + t.nsubs

let note_remove t ~pos =
  if t.kind = Ull then Psm.Index.note_remove t.index ~pos;
  if t.nsubs > 0 then t.events := !(t.events) + t.nsubs

let enqueue t vcpu =
  let node, steps = Al.insert_sorted t.queue vcpu in
  Vcpu.set_state vcpu Vcpu.Queued;
  note_insert t ~pos:steps node;
  refresh t;
  (node, steps)

let dequeue t node =
  let vcpu = Al.value t.queue node in
  let pos = Al.remove_node t.queue node in
  Vcpu.set_state vcpu Vcpu.Offline;
  note_remove t ~pos;
  refresh t;
  pos

let pop_front t =
  match Al.pop_first t.queue with
  | None -> None
  | Some vcpu ->
    note_remove t ~pos:0;
    refresh t;
    Some vcpu

let apply_merge t ~plan ~source =
  if not (Al.same_arena source t.queue) then
    invalid_arg "Runqueue.apply_merge: source list in a different arena";
  let index = index t in
  (* the spliced handles in source order (they survive the merge:
     slots are re-owned, not moved) *)
  let nodes = Al.handles source in
  let stats = Psm.Plan.execute plan ~index ~source in
  (* Phrase the merge as sequential inserts, which brings arrayB up to
     date: the source is sorted and the merge stable, so in source
     order each node's final position is also its insert position. *)
  for i = 0 to Array.length nodes - 1 do
    let node = nodes.(i) in
    Vcpu.set_state (Al.value t.queue node) Vcpu.Queued;
    note_insert t ~pos:(Al.position t.queue node) node
  done;
  refresh t;
  (stats, nodes)

let subscribe t ~events =
  if t.nsubs > 0 && t.events != events then
    invalid_arg "Runqueue.subscribe: a different events counter";
  t.events <- events;
  let s = t.next_subscription in
  t.next_subscription <- s + 1;
  if t.nsubs = Array.length t.sub_ids then begin
    let ids = Array.make (max 4 (2 * t.nsubs)) 0 in
    Array.blit t.sub_ids 0 ids 0 t.nsubs;
    t.sub_ids <- ids
  end;
  t.sub_ids.(t.nsubs) <- s;
  t.nsubs <- t.nsubs + 1;
  s

(* Array slot of subscription [s], or -1. *)
let find t s =
  let lo = ref 0 and hi = ref t.nsubs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.sub_ids.(mid) < s then lo := mid + 1 else hi := mid
  done;
  if !lo < t.nsubs && t.sub_ids.(!lo) = s then !lo else -1

let remove t i =
  Array.blit t.sub_ids (i + 1) t.sub_ids i (t.nsubs - i - 1);
  t.nsubs <- t.nsubs - 1

(* The plan an eager maintenance would hold, derived at resume: no
   library path changes a queued vCPU's credit while sandboxes are
   subscribed, so arrayB as it is now orders the source exactly as
   the per-mutation updates would have. *)
let catch_up t s plan =
  let i = find t s in
  if i < 0 then invalid_arg "Runqueue.catch_up: not subscribed";
  remove t i;
  Psm.Plan.refill plan ~index:(index t)

let unsubscribe t s =
  let i = find t s in
  if i >= 0 then remove t i
