(* GC settings, allocation counting over every domain, and the GC
   event stream.

   [Gc.minor_words] and [Gc.quick_stat] see the calling domain (or
   stale samples of the others), so a run whose work is spread over
   [Team] domains would under-count.  [domain_words] reads
   [Gc.minor_words] on each team strand's own domain instead, and the
   traced run sums the runtime's per-domain event counters for
   promotion and pause time. *)

module Re = Runtime_events
module Team = Horse_parallel.Team

(* GC settings are fixed here, not taken from the environment, so a
   number does not depend on who launched the process.  [Gc.set]
   applies to the calling domain only: every domain that runs
   simulation work calls [configure] (see [Workload.warm_team]). *)
let minor_heap_words = 8 * 1024 * 1024
let space_overhead = 120

let configure () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words; space_overhead }

(* Minor words allocated so far by the calling domain and every domain
   of the [shards]-wide team that [Cluster.run] uses.  Strands above
   the team's domain cap run on the caller, so domains are counted
   once each. *)
let domain_words ~shards =
  if shards <= 1 then Gc.minor_words ()
  else begin
    let words = Array.make shards 0.0 and ids = Array.make shards (-1) in
    Team.run (Team.shared ~width:shards) (fun w ->
        words.(w) <- Gc.minor_words ();
        ids.(w) <- (Domain.self () :> int));
    (* strands sharing a domain run in ascending order: keep the last *)
    let per_domain = Hashtbl.create 4 in
    Array.iteri (fun w id -> Hashtbl.replace per_domain id words.(w)) ids;
    Hashtbl.fold (fun _ w acc -> acc +. w) per_domain 0.0
  end

type totals = {
  promoted_words : int;  (** words promoted, all domains *)
  pause_ns : int;  (** domain-ns spent in minor GCs and major slices *)
  minor_collections : int;
  major_cycles : int;
}

type counts = {
  mutable promoted_bytes : int;
  mutable pause_ns : int;
  mutable lost_events : int;
  minor_open : int array;  (** per ring: start of the open EV_MINOR *)
  slice_open : int array;  (** per ring: start of the open EV_MAJOR_SLICE *)
}

type t = { counts : counts; cursor : Re.cursor; callbacks : Re.Callbacks.t }

let max_rings = 128

let ts x = Int64.to_int (Re.Timestamp.to_int64 x)

(* The runtime event rings, read only by the traced run.  Each domain
   owns a bounded ring, so the traced run polls between rounds. *)
let create () =
  Re.start ();
  let c =
    {
      promoted_bytes = 0;
      pause_ns = 0;
      lost_events = 0;
      minor_open = Array.make max_rings (-1);
      slice_open = Array.make max_rings (-1);
    }
  in
  let close opened ring at =
    if opened.(ring) >= 0 then begin
      c.pause_ns <- c.pause_ns + (ts at - opened.(ring));
      opened.(ring) <- -1
    end
  in
  let callbacks =
    Re.Callbacks.create
      ~runtime_counter:(fun _ring _at counter v ->
        match counter with
        | Re.EV_C_MINOR_PROMOTED -> c.promoted_bytes <- c.promoted_bytes + v
        | _ -> ())
      ~runtime_begin:(fun ring at phase ->
        match phase with
        | Re.EV_MINOR -> c.minor_open.(ring) <- ts at
        | Re.EV_MAJOR_SLICE -> c.slice_open.(ring) <- ts at
        | _ -> ())
      ~runtime_end:(fun ring at phase ->
        match phase with
        | Re.EV_MINOR -> close c.minor_open ring at
        | Re.EV_MAJOR_SLICE -> close c.slice_open ring at
        | _ -> ())
      ~lost_events:(fun _ring n -> c.lost_events <- c.lost_events + n)
      ()
  in
  { counts = c; cursor = Re.create_cursor None; callbacks }

let poll t = ignore (Re.read_poll t.cursor t.callbacks None)

(* Empty every domain's minor heap (a minor collection is a
   stop-the-world over all domains), then drain the rings: the totals
   cover every promotion made before the call. *)
let sample t =
  Gc.minor ();
  poll t;
  let s = Gc.quick_stat () in
  {
    promoted_words = t.counts.promoted_bytes / 8;
    pause_ns = t.counts.pause_ns;
    minor_collections = s.Gc.minor_collections;
    major_cycles = s.Gc.major_collections;
  }

let diff a b =
  {
    promoted_words = b.promoted_words - a.promoted_words;
    pause_ns = b.pause_ns - a.pause_ns;
    minor_collections = b.minor_collections - a.minor_collections;
    major_cycles = b.major_cycles - a.major_cycles;
  }

let lost_events t = t.counts.lost_events

(* The process's peak major heap, all domains. *)
let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0
