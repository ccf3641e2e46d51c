(* The one persistent domain runtime.

   The sharded engine runs the *same* strand-indexed job thousands of
   times — one per synchronization round — so the team keeps
   [width - 1] domains parked on a round counter and releases them
   with a single atomic increment (a sense-reversing barrier with the
   round number as the sense).  Strand [w] always runs on the same
   domain, so per-strand working sets (engines, outboxes, arena
   arrays) stay cache-warm across rounds, and a round costs no
   allocation at all.  Irregular batches ([map]) ride on the same
   rounds: every strand claims item indices from one shared counter
   until it runs dry, so a skewed batch balances itself without
   deques, stealing or chunking.

   Publication: the coordinator writes [job] and resets [remaining]
   before the release increment of [round]; a worker's acquiring read
   of [round] orders those writes before its job execution, and the
   worker's final decrement of [remaining] orders the job's writes
   before the coordinator observes completion.  Workers spin a short
   budget before parking on a condvar (and the coordinator likewise
   when joining), so idle teams block instead of burning timeslices.

   Worker count is capped at the cores actually available: a strand
   with no worker runs on the caller, after strand 0, in ascending
   order.  On a single-core host that caps at *zero* workers — every
   strand runs inline on the caller, because forcing a parked domain
   to participate in a barrier on a timeshared core costs a context
   switch per worker per round (measured ~48us/round for width 4
   against ~0 inline) and can never overlap any work.  Results don't
   depend on the split: the job contract is indexed by strand, not by
   domain.

   Nesting: a domain that is executing a strand — a worker, always,
   or the coordinator while it runs its own strands — carries the
   domain-local [in_round] flag, and any [run] it starts, on any
   team, runs every strand inline.  A nested round therefore never
   touches a team's round state, so a task may fan out again on the
   very team it runs on without a second coordinator or a deadlock. *)

type t = {
  width : int;
  domains : int;  (* spawned workers; strands beyond run on the caller *)
  mutable workers : unit Domain.t array;
  mutable job : int -> unit;  (* current round's work, strand-indexed *)
  round : int Atomic.t;  (* release increment; doubles as the barrier sense *)
  remaining : int Atomic.t;  (* workers still inside the current round *)
  closed : bool Atomic.t;
  go_lock : Mutex.t;
  go_cond : Condition.t;  (* workers park here past their spin budget *)
  done_lock : Mutex.t;
  done_cond : Condition.t;  (* the coordinator parks here while joining *)
  errors : (exn * Printexc.raw_backtrace) option array;  (* per strand *)
  mutable wait_ns : int;  (* coordinator time spent joining rounds *)
}

let spin_budget = 64

(* true while this domain executes a strand of some round *)
let in_round = Domain.DLS.new_key (fun () -> false)

let default_width () = max 1 (Domain.recommended_domain_count () - 1)

let worker_loop t w () =
  (* a worker only ever runs strands *)
  Domain.DLS.set in_round true;
  let rec await seen spin =
    if Atomic.get t.round <> seen || Atomic.get t.closed then ()
    else if spin > 0 then begin
      Domain.cpu_relax ();
      await seen (spin - 1)
    end
    else begin
      Mutex.lock t.go_lock;
      while Atomic.get t.round = seen && not (Atomic.get t.closed) do
        Condition.wait t.go_cond t.go_lock
      done;
      Mutex.unlock t.go_lock
    end
  in
  let rec loop seen =
    await seen spin_budget;
    if not (Atomic.get t.closed) then begin
      let seen = Atomic.get t.round in
      (try t.job w
       with e -> t.errors.(w) <- Some (e, Printexc.get_raw_backtrace ()));
      if Atomic.fetch_and_add t.remaining (-1) = 1 then begin
        (* last strand out signals the joining coordinator *)
        Mutex.lock t.done_lock;
        Condition.broadcast t.done_cond;
        Mutex.unlock t.done_lock
      end;
      loop seen
    end
  in
  loop 0

let reraise = Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt)

(* Every strand in ascending order on the calling domain, each still
   run if an earlier one failed; returns the lowest strand's failure.
   Touches no team state, so it is safe inside a round of the same
   team. *)
let inline_strands width f =
  let first = ref None in
  for w = 0 to width - 1 do
    try f w
    with e ->
      if Option.is_none !first then
        first := Some (e, Printexc.get_raw_backtrace ())
  done;
  !first

let create ~width () =
  if width < 1 then invalid_arg "Team.create: width < 1";
  let domains =
    min (width - 1) (max 0 (Domain.recommended_domain_count () - 1))
  in
  let t =
    {
      width;
      domains;
      workers = [||];
      job = ignore;
      round = Atomic.make 0;
      remaining = Atomic.make 0;
      closed = Atomic.make false;
      go_lock = Mutex.create ();
      go_cond = Condition.create ();
      done_lock = Mutex.create ();
      done_cond = Condition.create ();
      errors = Array.make width None;
      wait_ns = 0;
    }
  in
  t.workers <- Array.init domains (fun w -> Domain.spawn (worker_loop t (w + 1)));
  t

let width t = t.width

let domains t = t.domains

let rounds t = Atomic.get t.round

let barrier_wait_ns t = t.wait_ns

let run t f =
  if Atomic.get t.closed then invalid_arg "Team.run: team is shut down";
  if t.width = 1 then f 0
  else if Domain.DLS.get in_round then reraise (inline_strands t.width f)
  else if t.domains = 0 then begin
    (* no usable parallelism: every strand on the caller *)
    Atomic.incr t.round;
    Domain.DLS.set in_round true;
    let failed = inline_strands t.width f in
    Domain.DLS.set in_round false;
    reraise failed
  end
  else begin
    Array.fill t.errors 0 t.width None;
    let strand w =
      try f w
      with e -> t.errors.(w) <- Some (e, Printexc.get_raw_backtrace ())
    in
    t.job <- f;
    Atomic.set t.remaining t.domains;
    Atomic.incr t.round;
    (* a worker past its spin budget rechecks [round] under [go_lock]
       before waiting, so broadcasting under the same lock after the
       increment can never miss a sleeper *)
    Mutex.lock t.go_lock;
    Condition.broadcast t.go_cond;
    Mutex.unlock t.go_lock;
    Domain.DLS.set in_round true;
    strand 0;
    (* strands with no worker of their own ride on the caller *)
    for w = t.domains + 1 to t.width - 1 do
      strand w
    done;
    Domain.DLS.set in_round false;
    (* join: spin briefly for the stragglers, then park *)
    let t0 = Unix.gettimeofday () in
    let rec join spin =
      if Atomic.get t.remaining > 0 then
        if spin > 0 then begin
          Domain.cpu_relax ();
          join (spin - 1)
        end
        else begin
          Mutex.lock t.done_lock;
          if Atomic.get t.remaining > 0 then
            Condition.wait t.done_cond t.done_lock;
          Mutex.unlock t.done_lock;
          join spin_budget
        end
    in
    join spin_budget;
    t.wait_ns <- t.wait_ns + int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
    (* the lowest-numbered strand's failure wins, schedule-independent *)
    Array.iter reraise t.errors
  end

(* Self-scheduling fan-out: one round, and inside it every strand
   claims the next unclaimed index with one [fetch_and_add] until the
   counter runs past the end.  Item [i] always writes slot [i], so the
   result is slot-for-slot [List.mapi] whichever strand ran what. *)
let map t ~f xs =
  if Atomic.get t.closed then invalid_arg "Team.map: team is shut down";
  if t.width = 1 || xs = [] then List.mapi f xs
  else begin
    let items = Array.of_list xs in
    let n = Array.length items in
    let slots = Array.make n None in
    let next = Atomic.make 0 in
    let rec claim () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        slots.(i) <-
          Some
            (match f i items.(i) with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        claim ()
      end
    in
    run t (fun _ -> claim ());
    (* the lowest-indexed failure wins, independent of the schedule *)
    Array.iter
      (function Some (Error failure) -> reraise (Some failure) | _ -> ())
      slots;
    List.init n (fun i ->
        match slots.(i) with Some (Ok v) -> v | _ -> assert false)
  end

let map_seeded t ~seed ~f xs =
  let root = Horse_sim.Rng.create ~seed in
  map t ~f:(fun i x -> f ~rng:(Horse_sim.Rng.derive root ~index:i) i x) xs

let shutdown t =
  if not (Atomic.exchange t.closed true) then begin
    Mutex.lock t.go_lock;
    Condition.broadcast t.go_cond;
    Mutex.unlock t.go_lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_team ~width f =
  let t = create ~width () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One cached team per distinct width: the sharded engine and the
   sweeps ask for the same width every run, and domains are too
   expensive to spawn per run. *)
let shared_teams : (int, t) Hashtbl.t = Hashtbl.create 4

let shared_lock = Mutex.create ()

let shared ~width =
  if width < 1 then invalid_arg "Team.shared: width < 1";
  Mutex.lock shared_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock shared_lock) @@ fun () ->
  match Hashtbl.find_opt shared_teams width with
  | Some t when not (Atomic.get t.closed) -> t
  | Some _ | None ->
    let t = create ~width () in
    Hashtbl.replace shared_teams width t;
    t
