(* The flat, allocation-lean pending-event set.

   The simulator fires millions of events per experiment, so the queue
   is built to cost (almost) nothing per event beyond the caller's own
   closure:

   - Events live in a {e slot arena} of parallel unboxed arrays
     (payload / generation / sequence / position).  Scheduling recycles
     a free slot instead of allocating a cell, and a handle is the
     immediate int [(generation lsl 32) lor slot] — no box, and stale
     handles die on the generation check when the slot is reused.

   - Short-horizon events — the overwhelming majority: quantum ticks,
     load-update ticks, back-to-back completions — take a {e
     single-level timer-wheel fast path}: a ring of [4096] one-ns
     ticks, each an int vector of packed handles appended in FIFO
     order.  Insertion is O(1) with no comparisons at all.

   - Far-future events fall back to a {e flat 4-ary min-heap} keyed by
     (timestamp, sequence) held in three parallel int arrays, sifted
     with inlined integer compares (no closure calls, no boxing).
     Cancellation of a heap event is a real sift-based removal;
     cancellation of a ring event tombstones by generation bump.

   Popping merges the two sources by (timestamp, sequence), so FIFO
   among equal timestamps holds across the ring/heap split — the
   property tests pin the merged order against the boxed
   {!Event_queue_reference}.  [take_until] returns the bare payload
   and leaves the event's timestamp in the queue ([popped_at]), so a
   run loop pops without allocating; [pop]/[pop_until] box the same
   result as [Some (at, payload)] — an option and a pair per event —
   for callers that want a value.

   Invariants the near/far split relies on:
   - [clock] (the latest popped timestamp) never decreases, and no live
     ring event is ever behind it: the pop always takes the global
     minimum, so the clock cannot pass a pending near event.
   - Live ring events therefore sit in [clock, clock + ring_size), and
     within that window each tick maps to a distinct ring slot, so a
     slot's live entries all share one timestamp and carry ascending
     sequence numbers (FIFO by construction).  Stale tombstones from
     older rotations are skipped by the generation check. *)

let ring_bits = 12

let ring_size = 1 lsl ring_bits (* 4096 ns near horizon *)

let ring_mask = ring_size - 1

(* Handle layout: generation in the high bits, arena slot in the low
   32.  63-bit ints leave 30 generation bits per slot — a slot must be
   recycled a billion times before a stale handle could alias. *)
let gen_shift = 32

let slot_mask = (1 lsl gen_shift) - 1

(* [a_pos] value for an event parked in the ring (heap events store
   their heap index, which is >= 0). *)
let in_ring = -2

type 'a t = {
  (* slot arena *)
  mutable a_payload : 'a array;
  mutable a_gen : int array;
  mutable a_seq : int array;
  mutable a_pos : int array; (* heap index | [in_ring] | free-list next *)
  mutable free_head : int; (* -1 when the arena is full *)
  (* 4-ary min-heap of far events, keyed by (at, seq) *)
  mutable hat : int array;
  mutable hseq : int array;
  mutable hslot : int array;
  mutable hsize : int;
  (* near-horizon timer wheel *)
  ring_buf : int array array; (* packed handles per tick slot *)
  ring_len : int array;
  ring_taken : int array; (* consumed/tombstoned prefix per slot *)
  mutable ring_live : int;
  mutable ring_next : int; (* lower bound on the next live ring tick *)
  (* queue state *)
  mutable clock : int; (* high-water mark of popped timestamps *)
  mutable popped : int; (* timestamp of the last popped event *)
  mutable next_seq : int;
  mutable live_count : int;
}

type handle = int

(* slot [slot_mask] is never allocated, so [cancel] refuses it *)
let null_handle = -1

let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  let cap = 16 in
  {
    a_payload = Array.make cap (dummy ());
    a_gen = Array.make cap 0;
    a_seq = Array.make cap 0;
    a_pos = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1);
    free_head = 0;
    hat = Array.make cap 0;
    hseq = Array.make cap 0;
    hslot = Array.make cap 0;
    hsize = 0;
    ring_buf = Array.make ring_size [||];
    ring_len = Array.make ring_size 0;
    ring_taken = Array.make ring_size 0;
    ring_live = 0;
    ring_next = max_int;
    clock = 0;
    popped = 0;
    next_seq = 0;
    live_count = 0;
  }

(* ------------------------------------------------------------------ *)
(* Slot arena                                                          *)
(* ------------------------------------------------------------------ *)

let grow_arena t =
  let cap = Array.length t.a_gen in
  let cap' = 2 * cap in
  let payload = Array.make cap' (dummy ()) in
  Array.blit t.a_payload 0 payload 0 cap;
  let gen = Array.make cap' 0 in
  Array.blit t.a_gen 0 gen 0 cap;
  let seq = Array.make cap' 0 in
  Array.blit t.a_seq 0 seq 0 cap;
  let pos = Array.make cap' 0 in
  Array.blit t.a_pos 0 pos 0 cap;
  for i = cap to cap' - 1 do
    pos.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.a_payload <- payload;
  t.a_gen <- gen;
  t.a_seq <- seq;
  t.a_pos <- pos;
  t.free_head <- cap

let alloc_slot t payload =
  if t.free_head < 0 then grow_arena t;
  let s = t.free_head in
  t.free_head <- t.a_pos.(s);
  t.a_payload.(s) <- payload;
  s

(* Bumping the generation invalidates every outstanding handle to this
   incarnation; dropping the payload lets the GC reclaim it now rather
   than when the slot is next used. *)
let free_slot t s =
  t.a_payload.(s) <- dummy ();
  t.a_gen.(s) <- t.a_gen.(s) + 1;
  t.a_pos.(s) <- t.free_head;
  t.free_head <- s

(* ------------------------------------------------------------------ *)
(* 4-ary heap (far events)                                             *)
(* ------------------------------------------------------------------ *)

let grow_heap t =
  let cap = Array.length t.hat in
  let cap' = 2 * cap in
  let hat = Array.make cap' 0 in
  Array.blit t.hat 0 hat 0 cap;
  let hseq = Array.make cap' 0 in
  Array.blit t.hseq 0 hseq 0 cap;
  let hslot = Array.make cap' 0 in
  Array.blit t.hslot 0 hslot 0 cap;
  t.hat <- hat;
  t.hseq <- hseq;
  t.hslot <- hslot

let heap_place t i at seq slot =
  t.hat.(i) <- at;
  t.hseq.(i) <- seq;
  t.hslot.(i) <- slot;
  t.a_pos.(slot) <- i

(* Hole-based sifts: the key being placed rides in registers and each
   displaced element moves once. *)
let rec sift_up t i at seq slot =
  if i = 0 then heap_place t i at seq slot
  else begin
    let p = (i - 1) / 4 in
    if t.hat.(p) > at || (t.hat.(p) = at && t.hseq.(p) > seq) then begin
      let ps = t.hslot.(p) in
      t.hat.(i) <- t.hat.(p);
      t.hseq.(i) <- t.hseq.(p);
      t.hslot.(i) <- ps;
      t.a_pos.(ps) <- i;
      sift_up t p at seq slot
    end
    else heap_place t i at seq slot
  end

let rec sift_down t i at seq slot =
  let first = (4 * i) + 1 in
  if first >= t.hsize then heap_place t i at seq slot
  else begin
    let last = min (first + 3) (t.hsize - 1) in
    let m = ref first in
    for c = first + 1 to last do
      if
        t.hat.(c) < t.hat.(!m)
        || (t.hat.(c) = t.hat.(!m) && t.hseq.(c) < t.hseq.(!m))
      then m := c
    done;
    let m = !m in
    if t.hat.(m) < at || (t.hat.(m) = at && t.hseq.(m) < seq) then begin
      let ms = t.hslot.(m) in
      t.hat.(i) <- t.hat.(m);
      t.hseq.(i) <- t.hseq.(m);
      t.hslot.(i) <- ms;
      t.a_pos.(ms) <- i;
      sift_down t m at seq slot
    end
    else heap_place t i at seq slot
  end

let heap_push t ~at ~seq ~slot =
  if t.hsize = Array.length t.hat then grow_heap t;
  let i = t.hsize in
  t.hsize <- t.hsize + 1;
  sift_up t i at seq slot

(* Remove the event at heap index [i]: refill the hole with the last
   element, sifting whichever way its key demands. *)
let heap_remove t i =
  t.hsize <- t.hsize - 1;
  let last = t.hsize in
  if i < last then begin
    let at = t.hat.(last) and seq = t.hseq.(last) and slot = t.hslot.(last) in
    if i > 0 && (t.hat.((i - 1) / 4) > at
                 || (t.hat.((i - 1) / 4) = at && t.hseq.((i - 1) / 4) > seq))
    then sift_up t i at seq slot
    else sift_down t i at seq slot
  end

(* ------------------------------------------------------------------ *)
(* Near-horizon ring                                                   *)
(* ------------------------------------------------------------------ *)

let ring_push t ~tick ~packed =
  let s = tick land ring_mask in
  let len = t.ring_len.(s) in
  let buf = t.ring_buf.(s) in
  let buf =
    if len = Array.length buf then begin
      let buf' = Array.make (max 4 (2 * len)) 0 in
      Array.blit buf 0 buf' 0 len;
      t.ring_buf.(s) <- buf';
      buf'
    end
    else buf
  in
  buf.(len) <- packed;
  t.ring_len.(s) <- len + 1;
  t.ring_live <- t.ring_live + 1;
  if tick < t.ring_next then t.ring_next <- tick

(* Advance [ring_next] to the first tick at or after the clock whose
   slot still holds a live entry, leaving that slot's [taken] cursor on
   the entry; [max_int] when the ring holds nothing live.  Tombstones
   are skipped (and fully-drained slots reset) as a side effect, so the
   scan is amortised by the events and cancels that created them. *)
(* Plain loops and non-escaping refs only: this runs on every pop and
   must not allocate (a local [rec] closure here showed up as 4 words
   per event in the micro-bench). *)
let ring_scan t =
  if t.ring_live = 0 then begin
    t.ring_next <- max_int;
    max_int
  end
  else begin
    if t.ring_next < t.clock then t.ring_next <- t.clock;
    let found = ref (-1) in
    while !found < 0 do
      let s = t.ring_next land ring_mask in
      let len = t.ring_len.(s) in
      let buf = t.ring_buf.(s) in
      let taken = ref t.ring_taken.(s) in
      while
        !taken < len
        &&
        let p = buf.(!taken) in
        t.a_gen.(p land slot_mask) <> p asr gen_shift
      do
        incr taken
      done;
      if !taken < len then begin
        t.ring_taken.(s) <- !taken;
        found := t.ring_next
      end
      else begin
        t.ring_len.(s) <- 0;
        t.ring_taken.(s) <- 0;
        t.ring_next <- t.ring_next + 1
      end
    done;
    !found
  end

(* ------------------------------------------------------------------ *)
(* The public operations                                               *)
(* ------------------------------------------------------------------ *)

let schedule t ~at payload =
  let at = Time_ns.to_ns at in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot = alloc_slot t payload in
  t.a_seq.(slot) <- seq;
  let packed = (t.a_gen.(slot) lsl gen_shift) lor slot in
  if at >= t.clock && at - t.clock < ring_size then begin
    t.a_pos.(slot) <- in_ring;
    ring_push t ~tick:at ~packed
  end
  else heap_push t ~at ~seq ~slot;
  t.live_count <- t.live_count + 1;
  packed

let cancel t h =
  let slot = h land slot_mask in
  if slot >= Array.length t.a_gen || t.a_gen.(slot) <> h asr gen_shift then
    false
  else begin
    let pos = t.a_pos.(slot) in
    if pos = in_ring then t.ring_live <- t.ring_live - 1
    else heap_remove t pos;
    free_slot t slot;
    t.live_count <- t.live_count - 1;
    true
  end

(* Take the entry [ring_scan] left the [taken] cursor on. *)
let consume_ring t tick =
  let s = tick land ring_mask in
  let taken = t.ring_taken.(s) in
  let packed = t.ring_buf.(s).(taken) in
  let slot = packed land slot_mask in
  t.ring_taken.(s) <- taken + 1;
  t.ring_live <- t.ring_live - 1;
  t.live_count <- t.live_count - 1;
  let payload = t.a_payload.(slot) in
  free_slot t slot;
  t.clock <- tick;
  payload

let consume_heap t =
  let at = t.hat.(0) and slot = t.hslot.(0) in
  t.hsize <- t.hsize - 1;
  let last = t.hsize in
  if last > 0 then
    sift_down t 0 t.hat.(last) t.hseq.(last) t.hslot.(last);
  t.live_count <- t.live_count - 1;
  let payload = t.a_payload.(slot) in
  free_slot t slot;
  (* late events (scheduled in the queue's past) must not rewind the
     clock, or the near/far window would go inconsistent *)
  if at > t.clock then t.clock <- at;
  payload

let limit_ns = function None -> max_int | Some l -> Time_ns.to_ns l

(* Where the earliest live event firing at or before [limit_ns] sits:
   [src_ring], [src_heap], or [src_none] when nothing is due.  A found
   event's timestamp is left in [popped] for the consume that follows. *)
let src_none = 0

let src_ring = 1

let src_heap = 2

let select t limit_ns =
  if t.live_count = 0 then src_none
  else begin
    let rtick = ring_scan t in
    let use_ring =
      if t.hsize = 0 then true
      else if rtick = max_int then false
      else begin
        let hat0 = t.hat.(0) in
        rtick < hat0
        || rtick = hat0
           &&
           let s = rtick land ring_mask in
           let packed = t.ring_buf.(s).(t.ring_taken.(s)) in
           t.a_seq.(packed land slot_mask) < t.hseq.(0)
      end
    in
    let at = if use_ring then rtick else t.hat.(0) in
    if at > limit_ns then src_none
    else begin
      t.popped <- at;
      if use_ring then src_ring else src_heap
    end
  end

let consume t src =
  if src = src_ring then consume_ring t t.popped else consume_heap t

let take_until t ~limit ~none =
  let src = select t (limit_ns limit) in
  if src = src_none then none else consume t src

let popped_at t = Time_ns.of_ns t.popped

let pop_until t ~limit =
  let src = select t (limit_ns limit) in
  if src = src_none then None
  else begin
    let payload = consume t src in
    Some (Time_ns.of_ns t.popped, payload)
  end

let pop t = pop_until t ~limit:None

let next_time t =
  if t.live_count = 0 then None
  else begin
    let rtick = ring_scan t in
    let m = if t.hsize = 0 then rtick else min rtick t.hat.(0) in
    Some (Time_ns.of_ns m)
  end

let length t = t.live_count

let is_empty t = t.live_count = 0
