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
  load : Load_tracking.t;
  (* arrayB over [queue], kept fresh on ull queues only (a normal
     queue's stays empty: set_kind requires an empty queue) *)
  index : Vcpu.t Psm.Index.t;
  (* carries a logged sort key into Plan.note_target_insert: the
     queue orders by credit alone (Vcpu.compare_credit) *)
  probe : Vcpu.t;
  (* Subscribers in ascending subscription id.  [sub_seen.(i)] is the
     log version replayed into [sub_plans.(i)] so far.  It is
     non-decreasing in array order (a new subscriber starts at the
     current version, a flush brings everyone to it), so the oldest
     live entry is [sub_seen.(0)]. *)
  mutable sub_ids : int array;
  mutable sub_seen : int array;
  mutable sub_plans : Vcpu.t Psm.Plan.t option array;
  mutable nsubs : int;
  mutable next_subscription : int;
  mutable events : int ref;
  (* The mutation log, struct-of-arrays: slot i holds version
     [log_base + i].  [log_ops] is the position for an insert and
     [lnot pos] for a removal; [log_keys] is the inserted vCPU's credit
     as of the insert (unused for a removal). *)
  mutable log_ops : int array;
  mutable log_keys : int array;
  mutable log_base : int;
  mutable log_len : int;
}

let create ?arena ?(kind = Normal) ~cpu ~id () =
  let arena =
    match arena with
    | Some arena -> arena
    | None -> Al.create_arena ~compare:Vcpu.compare_credit ()
  in
  let queue = Al.create arena in
  {
    id;
    cpu;
    kind;
    queue;
    load = Load_tracking.create ();
    index = Psm.Index.build queue;
    probe = Vcpu.create ~sandbox:(-1) ~index:(-1) ();
    sub_ids = [||];
    sub_seen = [||];
    sub_plans = [||];
    nsubs = 0;
    next_subscription = 0;
    events = ref 0;
    log_ops = [||];
    log_keys = [||];
    log_base = 0;
    log_len = 0;
  }

let id t = t.id

let cpu t = t.cpu

let kind t = t.kind

let is_ull t = t.kind = Ull

let set_kind t kind =
  if not (Al.is_empty t.queue) then
    invalid_arg "Runqueue.set_kind: queue not empty";
  t.kind <- kind

let timeslice t =
  match t.kind with Ull -> Time.span_us 1.0 | Normal -> Time.span_ms 10.0

let length t = Al.length t.queue

let queue t = t.queue

let arena t = Al.arena t.queue

let load t = t.load

let index t =
  if t.kind <> Ull then invalid_arg "Runqueue.index: not an ull_runqueue";
  t.index

let subscriber_count t = t.nsubs

let version t = t.log_base + t.log_len

let log_length t = if t.nsubs = 0 then 0 else version t - t.sub_seen.(0)

(* Replay the entries from version [from] on into [plan], in log
   order: the same note_target_* calls an eager subscriber would have
   received, with each insert's key as it was when logged. *)
let replay t plan ~from =
  for v = from to version t - 1 do
    let i = v - t.log_base in
    let op = t.log_ops.(i) in
    if op >= 0 then begin
      Vcpu.set_credit t.probe t.log_keys.(i);
      Psm.Plan.note_target_insert plan ~pos:op t.probe
    end
    else Psm.Plan.note_target_remove plan ~pos:(lnot op)
  done

let replay_sub t i =
  match t.sub_plans.(i) with
  | Some plan ->
    replay t plan ~from:t.sub_seen.(i);
    t.sub_seen.(i) <- version t
  | None -> assert false

let flush t =
  for i = 0 to t.nsubs - 1 do
    replay_sub t i
  done;
  t.log_base <- version t;
  t.log_len <- 0

(* Full log (only ever with subscribers): drop the entries every
   subscriber has already seen, and grow only if that frees nothing. *)
let make_room t =
  let dead = t.sub_seen.(0) - t.log_base in
  if dead > 0 then begin
    let live = t.log_len - dead in
    Array.blit t.log_ops dead t.log_ops 0 live;
    Array.blit t.log_keys dead t.log_keys 0 live;
    t.log_base <- t.log_base + dead;
    t.log_len <- live
  end
  else begin
    let cap = max 8 (2 * t.log_len) in
    let ops = Array.make cap 0 and keys = Array.make cap 0 in
    Array.blit t.log_ops 0 ops 0 t.log_len;
    Array.blit t.log_keys 0 keys 0 t.log_len;
    t.log_ops <- ops;
    t.log_keys <- keys
  end

(* One mutation: counted once per subscriber (what the eager fan-out
   delivered), logged only while someone is subscribed, and flushed
   into every lagging plan once the live log outgrows twice the
   subscriber count (checked here and when a subscriber leaves) — so
   the log stays O(subscribers) and no entry is replayed into a plan
   more than once. *)
let log t op key =
  if t.nsubs > 0 then begin
    t.events := !(t.events) + t.nsubs;
    if t.log_len = Array.length t.log_ops then make_room t;
    t.log_ops.(t.log_len) <- op;
    t.log_keys.(t.log_len) <- key;
    t.log_len <- t.log_len + 1;
    if log_length t > 2 * t.nsubs then flush t
  end

let note_insert t ~pos node =
  if t.kind = Ull then Psm.Index.note_insert t.index ~pos node;
  log t pos (Vcpu.credit (Al.value t.queue node))

let note_remove t ~pos =
  if t.kind = Ull then Psm.Index.note_remove t.index ~pos;
  log t (lnot pos) 0

let enqueue t vcpu =
  let node, steps = Al.insert_sorted t.queue vcpu in
  Vcpu.set_state vcpu Vcpu.Queued;
  note_insert t ~pos:steps node;
  (node, steps)

let dequeue t node =
  let vcpu = Al.value t.queue node in
  let pos = Al.remove_node t.queue node in
  Vcpu.set_state vcpu Vcpu.Offline;
  note_remove t ~pos;
  pos

let pop_front t =
  match Al.pop_first t.queue with
  | None -> None
  | Some vcpu ->
    note_remove t ~pos:0;
    Some vcpu

let apply_merge t ~plan ~source =
  if not (Al.same_arena source t.queue) then
    invalid_arg "Runqueue.apply_merge: source list in a different arena";
  let index = index t in
  (* Captured before execute consumes the plan/source; [nodes] is the
     spliced handles in source order (they survive the merge: slots
     are re-owned, not moved). *)
  let keys, counts = Psm.Plan.keys_counts plan in
  let nodes = Al.handles source in
  let stats = Psm.Plan.execute plan ~index ~source in
  (* Phrase the merge as sequential inserts, which brings arrayB up to
     date and logs them for the remaining subscribers: element j of
     the segment spliced at key k sits at position k + (elements
     spliced before this segment) + j.  One pass, running offset. *)
  let offset = ref 0 in
  let cursor = ref 0 in
  for i = 0 to Array.length keys - 1 do
    let key = keys.(i) and count = counts.(i) in
    for j = 0 to count - 1 do
      let node = nodes.(!cursor + j) in
      Vcpu.set_state (Al.value t.queue node) Vcpu.Queued;
      note_insert t ~pos:(key + !offset + j) node
    done;
    cursor := !cursor + count;
    offset := !offset + count
  done;
  (stats, nodes)

let subscribe t ~events plan =
  if t.nsubs > 0 && t.events != events then
    invalid_arg "Runqueue.subscribe: a different events counter";
  t.events <- events;
  let s = t.next_subscription in
  t.next_subscription <- s + 1;
  if t.nsubs = Array.length t.sub_ids then begin
    let cap = max 4 (2 * t.nsubs) in
    let ids = Array.make cap 0 and seen = Array.make cap 0 in
    let plans = Array.make cap None in
    Array.blit t.sub_ids 0 ids 0 t.nsubs;
    Array.blit t.sub_seen 0 seen 0 t.nsubs;
    Array.blit t.sub_plans 0 plans 0 t.nsubs;
    t.sub_ids <- ids;
    t.sub_seen <- seen;
    t.sub_plans <- plans
  end;
  t.sub_ids.(t.nsubs) <- s;
  t.sub_seen.(t.nsubs) <- version t;
  t.sub_plans.(t.nsubs) <- Some plan;
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
  let tail = t.nsubs - i - 1 in
  Array.blit t.sub_ids (i + 1) t.sub_ids i tail;
  Array.blit t.sub_seen (i + 1) t.sub_seen i tail;
  Array.blit t.sub_plans (i + 1) t.sub_plans i tail;
  t.nsubs <- t.nsubs - 1;
  t.sub_plans.(t.nsubs) <- None (* drop the plan *);
  if t.nsubs = 0 then begin
    t.log_base <- version t;
    t.log_len <- 0
  end
  else if log_length t > 2 * t.nsubs then flush t

let catch_up t s =
  let i = find t s in
  if i < 0 then invalid_arg "Runqueue.catch_up: not subscribed";
  replay_sub t i;
  remove t i

let unsubscribe t s =
  let i = find t s in
  if i >= 0 then remove t i
