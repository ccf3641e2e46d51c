type t = {
  mutable clock : Time_ns.t;
  queue : callback Event_queue.t;
  root_rng : Rng.t;
  mutable running : bool;
  mutable fired : int;
}

and callback = t -> unit

type event_handle = Event_queue.handle

let null_handle = Event_queue.null_handle

let create ?(seed = 42) () =
  {
    clock = Time_ns.zero;
    queue = Event_queue.create ();
    root_rng = Rng.create ~seed;
    running = false;
    fired = 0;
  }

let now t = t.clock

let rng t = t.root_rng

let schedule_at t ~at f =
  if Time_ns.(at < t.clock) then
    invalid_arg "Engine.schedule_at: timestamp in the past";
  Event_queue.schedule t.queue ~at f

let schedule t ~after f = schedule_at t ~at:(Time_ns.add t.clock after) f

let cancel t handle = Event_queue.cancel t.queue handle

let pending t = Event_queue.length t.queue

let next_time t = Event_queue.next_time t.queue

let events_fired t = t.fired

(* The sentinel [take_until] hands back when nothing is due: never
   scheduled, so [==] against it tells "drained" from a real event
   without boxing the pop. *)
let drained : callback = fun _ -> assert false

let fire t f =
  t.clock <- Event_queue.popped_at t.queue;
  t.fired <- t.fired + 1;
  f t

let step t =
  let f = Event_queue.take_until t.queue ~limit:None ~none:drained in
  if f == drained then false
  else begin
    fire t f;
    true
  end

let run ?until t =
  if t.running then
    invalid_arg
      (Printf.sprintf
         "Engine.run: re-entrant call at virtual time %dns (the engine is \
          already draining its event queue; schedule a callback instead)"
         (Time_ns.to_ns t.clock));
  t.running <- true;
  Fun.protect ~finally:(fun () -> t.running <- false) @@ fun () ->
  let continue = ref true in
  while !continue do
    let f = Event_queue.take_until t.queue ~limit:until ~none:drained in
    if f == drained then continue := false else fire t f
  done;
  match until with
  | Some limit when Time_ns.(t.clock < limit) -> t.clock <- limit
  | Some _ | None -> ()
