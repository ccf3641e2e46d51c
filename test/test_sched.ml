(* Tests for horse_sched: vCPUs, run queues (ordering, notifications,
   P²SM merge integration), load tracking, credit2 accounting and the
   scheduler's placement policies. *)

module Vcpu = Horse_sched.Vcpu
module Runqueue = Horse_sched.Runqueue
module Load = Horse_sched.Load_tracking
module Credit2 = Horse_sched.Credit2
module Scheduler = Horse_sched.Scheduler
module Topology = Horse_cpu.Topology
module Al = Horse_psm.Arena_list
module Psm = Horse_psm.Psm
module Time = Horse_sim.Time_ns

let mk_vcpu ?(sandbox = 0) ?(index = 0) ?credit () =
  Vcpu.create ~sandbox ~index ?credit ()

(* ------------------------------------------------------------------ *)
(* Vcpu                                                                *)
(* ------------------------------------------------------------------ *)

let test_vcpu_basics () =
  let v = mk_vcpu ~sandbox:3 ~index:1 () in
  Alcotest.(check int) "sandbox" 3 (Vcpu.sandbox v);
  Alcotest.(check int) "index" 1 (Vcpu.index v);
  Alcotest.(check int) "default credit" Vcpu.default_credit (Vcpu.credit v);
  Alcotest.(check bool) "offline" true (Vcpu.state v = Vcpu.Offline)

let test_vcpu_credit_ops () =
  let v = mk_vcpu ~credit:100 () in
  Vcpu.burn_credit v 30;
  Alcotest.(check int) "burned" 70 (Vcpu.credit v);
  Vcpu.burn_credit v 100;
  Alcotest.(check int) "negative allowed" (-30) (Vcpu.credit v);
  Vcpu.set_credit v 500;
  Alcotest.(check int) "set" 500 (Vcpu.credit v)

let test_vcpu_ordering () =
  let a = mk_vcpu ~credit:10 () and b = mk_vcpu ~credit:20 () in
  Alcotest.(check bool) "least credit first" true (Vcpu.compare_credit a b < 0)

(* ------------------------------------------------------------------ *)
(* Runqueue                                                            *)
(* ------------------------------------------------------------------ *)

let mk_queue ?kind () = Runqueue.create ?kind ~cpu:0 ~id:0 ()

let test_runqueue_sorted_by_credit () =
  let q = mk_queue () in
  let low = mk_vcpu ~index:0 ~credit:5 ()
  and mid = mk_vcpu ~index:1 ~credit:10 ()
  and high = mk_vcpu ~index:2 ~credit:20 () in
  ignore (Runqueue.enqueue q high);
  ignore (Runqueue.enqueue q low);
  ignore (Runqueue.enqueue q mid);
  Alcotest.(check int) "length" 3 (Runqueue.length q);
  Alcotest.(check (list int)) "credit order" [ 5; 10; 20 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue q)));
  Alcotest.(check bool) "queued state" true (Vcpu.state low = Vcpu.Queued)

let test_runqueue_dequeue () =
  let q = mk_queue () in
  let v = mk_vcpu () in
  let node, _ = Runqueue.enqueue q v in
  let pos = Runqueue.dequeue q node in
  Alcotest.(check int) "pos" 0 pos;
  Alcotest.(check int) "empty" 0 (Runqueue.length q);
  Alcotest.(check bool) "offline" true (Vcpu.state v = Vcpu.Offline)

let test_runqueue_timeslices () =
  let normal = mk_queue () and ull = mk_queue ~kind:Runqueue.Ull () in
  Alcotest.(check int) "ull 1us" 1_000
    (Time.span_to_ns (Runqueue.timeslice ull));
  Alcotest.(check int) "normal 10ms" 10_000_000
    (Time.span_to_ns (Runqueue.timeslice normal))

let test_runqueue_set_kind_guard () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ()));
  Alcotest.check_raises "non-empty"
    (Invalid_argument "Runqueue.set_kind: queue not empty") (fun () ->
      Runqueue.set_kind q Runqueue.Ull)

(* A paused sandbox's side of P²SM, as Vmm.pause builds it: its vCPUs
   sorted into a source list in the queue's arena, and the plan
   against the queue's arrayB as it is now. *)
let paused_plan ?(sandbox = 50) q credits =
  let source = Al.create (Runqueue.arena q) in
  List.iteri
    (fun index credit ->
      ignore (Al.insert_sorted source (mk_vcpu ~sandbox ~index ~credit ())))
    credits;
  (source, Psm.Plan.build ~source ~index:(Runqueue.index q))

let same_shape a b = Psm.Plan.keys_counts a = Psm.Plan.keys_counts b

let fresh_against q ~source plan =
  Psm.Index.is_consistent (Runqueue.index q)
  && Psm.Plan.is_consistent plan ~index:(Runqueue.index q) ~source

let test_runqueue_notifications () =
  let q = mk_queue ~kind:Runqueue.Ull () in
  let events = ref 0 in
  let source, plan = paused_plan q [ 3; 7; 12 ] in
  let sub = Runqueue.subscribe q ~events in
  let v1 = mk_vcpu ~index:0 ~credit:10 () in
  let v2 = mk_vcpu ~index:1 ~credit:5 () in
  let n1, p1 = Runqueue.enqueue q v1 in
  let _, p2 = Runqueue.enqueue q v2 in
  let p3 = Runqueue.dequeue q n1 in
  Alcotest.(check (list int)) "reported positions: insert 0, insert 0, remove 1"
    [ 0; 0; 1 ] [ p1; p2; p3 ];
  Alcotest.(check int) "one delivery per mutation" 3 !events;
  Runqueue.catch_up q sub plan;
  (* the eager fan-out's sequence: {3;7;12}@0 -> {3;7}@0 {12}@1 ->
     {3}@0 {7}@1 {12}@2 -> {3}@0 {7;12}@1 *)
  Alcotest.(check bool) "caught-up plan" true
    (Psm.Plan.keys_counts plan = ([| 0; 1 |], [| 1; 2 |]));
  Alcotest.(check bool) "fresh against the queue" true
    (fresh_against q ~source plan);
  ignore (Runqueue.enqueue q (mk_vcpu ~index:2 ()));
  Alcotest.(check int) "nothing counted after catch_up" 3 !events;
  Alcotest.(check int) "subscriber count" 0 (Runqueue.subscriber_count q)

let test_runqueue_pop_front_notifies () =
  let q = mk_queue ~kind:Runqueue.Ull () in
  let events = ref 0 in
  let source, plan = paused_plan q [ 2 ] in
  let sub = Runqueue.subscribe q ~events in
  ignore (Runqueue.enqueue q (mk_vcpu ~credit:1 ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:3 ()));
  let v = Option.get (Runqueue.pop_front q) in
  Alcotest.(check int) "least credit popped" 1 (Vcpu.credit v);
  Alcotest.(check int) "the removal is counted" 3 !events;
  Runqueue.catch_up q sub plan;
  Alcotest.(check bool) "plan derived after the removal at 0" true
    (Psm.Plan.keys_counts plan = ([| 0 |], [| 1 |])
    && fresh_against q ~source plan)

let test_runqueue_apply_merge () =
  (* a full P²SM round-trip against a queue with a bystander *)
  let q = mk_queue ~kind:Runqueue.Ull () in
  List.iter
    (fun (i, c) -> ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:9 ~index:i ~credit:c ())))
    [ (0, 10); (1, 30) ];
  let events = ref 0 in
  let by_source, bystander = paused_plan ~sandbox:2 q [ 15; 35 ] in
  let _, twin = paused_plan ~sandbox:3 q [ 15; 35 ] in
  let sub = Runqueue.subscribe q ~events in
  let source, plan = paused_plan ~sandbox:1 q [ 5; 20; 40 ] in
  let stats, nodes = Runqueue.apply_merge q ~plan ~source in
  Alcotest.(check int) "3 spliced" 3 stats.Psm.Plan.spliced;
  Alcotest.(check int) "3 nodes returned" 3 (Array.length nodes);
  Alcotest.(check (list int)) "final order" [ 5; 10; 20; 30; 40 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue q)));
  Alcotest.(check bool) "arrayB follows the merge" true
    (Psm.Index.is_consistent (Runqueue.index q));
  Alcotest.(check int) "one delivery per spliced vCPU" 3 !events;
  (* the merge counts as sequential inserts at 0, 2 and 4 *)
  List.iter
    (fun (pos, credit) ->
      Psm.Plan.note_target_insert twin ~pos (mk_vcpu ~credit ()))
    [ (0, 5); (2, 20); (4, 40) ];
  Runqueue.catch_up q sub bystander;
  Alcotest.(check bool) "positions as sequential inserts" true
    (same_shape bystander twin
    && fresh_against q ~source:by_source bystander);
  Alcotest.(check bool) "spliced vcpus queued" true
    (Array.for_all
       (fun n -> Vcpu.state (Al.value (Runqueue.queue q) n) = Vcpu.Queued)
       nodes)

(* The deferred path against an eager oracle.  A script of queue
   mutations runs with paused subscribers joining, resuming (catch_up
   then apply_merge) and leaving mid-stream.  Each subscriber has a
   twin plan over an identical source that the script updates eagerly
   from the positions the queue reports, exactly as the per-mutation
   fan-out did.  At every catch_up the plan derived from arrayB must
   equal its twin and a from-scratch rebuild, and the events counter
   must equal the subscriber count summed over mutations.  Returns the
   checks that failed and the caught-up plan shapes, in catch_up
   order. *)
type op =
  | Enq of int  (** enqueue a vCPU with this credit *)
  | Deq of int  (** dequeue the node at this index (mod length) *)
  | Pop
  | Join of int list  (** a sandbox with these credits pauses *)
  | Resume of int  (** this subscriber (mod count) resumes *)
  | Leave of int  (** this subscriber (mod count) is torn down *)

type paused = {
  sub : Runqueue.subscription;
  source : Vcpu.t Al.t;
  plan : Vcpu.t Psm.Plan.t;
  twin : Vcpu.t Psm.Plan.t;
}

let run_deferred_script ops =
  let q = mk_queue ~kind:Runqueue.Ull () in
  let events = ref 0 and expected = ref 0 and next_id = ref 100 in
  let live = ref [] and shapes = ref [] and failures = ref [] in
  let check what b = if not b then failures := what :: !failures in
  let mutated () = expected := !expected + List.length !live in
  let eager_insert pos v =
    List.iter (fun p -> Psm.Plan.note_target_insert p.twin ~pos v) !live
  in
  let eager_remove pos =
    List.iter (fun p -> Psm.Plan.note_target_remove p.twin ~pos) !live
  in
  let nth_live i = List.nth !live (i mod List.length !live) in
  let drop p = live := List.filter (fun x -> x != p) !live in
  List.iter
    (fun op ->
      (match op with
      | Enq credit ->
        incr next_id;
        let v = mk_vcpu ~sandbox:!next_id ~credit () in
        mutated ();
        let _, pos = Runqueue.enqueue q v in
        eager_insert pos v
      | Deq i when Runqueue.length q > 0 ->
        let node = Al.nth (Runqueue.queue q) (i mod Runqueue.length q) in
        mutated ();
        eager_remove (Runqueue.dequeue q node)
      | Deq _ -> ()
      | Pop ->
        if Runqueue.length q > 0 then mutated ();
        if Runqueue.pop_front q <> None then eager_remove 0
      | Join credits ->
        incr next_id;
        let source, plan = paused_plan ~sandbox:!next_id q credits in
        let _, twin = paused_plan ~sandbox:(- !next_id) q credits in
        let sub = Runqueue.subscribe q ~events in
        live := !live @ [ { sub; source; plan; twin } ]
      | Resume _ when !live = [] -> ()
      | Resume i ->
        let p = nth_live i in
        drop p;
        Runqueue.catch_up q p.sub p.plan;
        check "twin" (same_shape p.plan p.twin);
        check "fresh" (fresh_against q ~source:p.source p.plan);
        check "counter" (!events = !expected);
        shapes := Psm.Plan.keys_counts p.plan :: !shapes;
        let nodes = Al.handles p.source in
        expected := !expected + (Array.length nodes * List.length !live);
        ignore (Runqueue.apply_merge q ~plan:p.plan ~source:p.source);
        (* inserting in source order at the final positions replays
           the merge as sequential inserts *)
        Array.iter
          (fun node ->
            eager_insert (Al.position (Runqueue.queue q) node)
              (Al.value (Runqueue.queue q) node))
          nodes
      | Leave _ when !live = [] -> ()
      | Leave i ->
        let p = nth_live i in
        drop p;
        Runqueue.unsubscribe q p.sub);
      check "arrayB fresh" (Psm.Index.is_consistent (Runqueue.index q));
      check "sorted" (Al.is_sorted (Runqueue.queue q)))
    ops;
  (* everyone still paused resumes at the end *)
  List.iter
    (fun p ->
      Runqueue.catch_up q p.sub p.plan;
      check "final twin" (same_shape p.plan p.twin);
      check "final fresh" (fresh_against q ~source:p.source p.plan);
      shapes := Psm.Plan.keys_counts p.plan :: !shapes)
    !live;
  check "final counter" (!events = !expected);
  (List.rev !failures, List.rev !shapes)

(* Catching up is deterministic.  Subscriber a pauses before any
   churn, b after 50 mutations; both must catch up to their eager
   twins (b's started where b joined), and a rerun of the same seed
   must reproduce the exact plans. *)
let churn_with_two_subscribers seed =
  let st = Random.State.make [| seed |] in
  let ops = ref [ Join [ 200; 500; 800 ] ] in
  for i = 0 to 199 do
    if i = 50 then ops := Join [ 100; 600 ] :: !ops;
    ops :=
      (match Random.State.int st 3 with
      | 0 | 1 -> Enq (Random.State.int st 1000)
      | _ -> Deq (Random.State.int st 1000))
      :: !ops
  done;
  run_deferred_script (List.rev (Resume 0 :: !ops))

let test_subscriber_determinism seed () =
  let failures, shapes = churn_with_two_subscribers seed in
  Alcotest.(check (list string)) "a and b caught up to their eager twins" []
    failures;
  Alcotest.(check int) "both resumed" 2 (List.length shapes);
  let _, shapes' = churn_with_two_subscribers seed in
  Alcotest.(check bool) "identical across reruns" true (shapes = shapes')

(* The plan comes from arrayB at resume, not from the keys the queued
   vCPUs had when they were inserted.  Here a queued vCPU's credit is
   burned in place from 20 to 10 before the paused sandbox resumes:
   its plan must place both of its vCPUs (15, 25) after the 10, so the
   merged queue stays sorted.  The eager twin, which split at the
   inserted key 20, would leave 15 ahead of 10. *)
let test_replay_keeps_logged_key () =
  let q = mk_queue ~kind:Runqueue.Ull () in
  let events = ref 0 in
  let source, plan = paused_plan q [ 15; 25 ] in
  let _, twin = paused_plan ~sandbox:51 q [ 15; 25 ] in
  let sub = Runqueue.subscribe q ~events in
  let v = mk_vcpu ~credit:20 () in
  let _, pos = Runqueue.enqueue q v in
  Psm.Plan.note_target_insert twin ~pos v;
  Credit2.charge v ~ran_for:(Time.span_us 10.0);
  Alcotest.(check int) "credit burned" 10 (Vcpu.credit v);
  Runqueue.catch_up q sub plan;
  Alcotest.(check bool) "plan derived from arrayB at resume" true
    (Psm.Plan.keys_counts plan = ([| 1 |], [| 2 |])
    && fresh_against q ~source plan);
  Alcotest.(check bool) "the eager twin split at the inserted key" true
    (Psm.Plan.keys_counts twin = ([| 0; 1 |], [| 1; 1 |]));
  ignore (Runqueue.apply_merge q ~plan ~source);
  Alcotest.(check (list int)) "merged order" [ 10; 15; 25 ]
    (List.map Vcpu.credit (Al.to_list (Runqueue.queue q)));
  Alcotest.(check bool) "merged queue sorted" true
    (Al.is_sorted (Runqueue.queue q))

let test_runqueue_merge_wrong_index_rejected () =
  let q = mk_queue ~kind:Runqueue.Ull ()
  and other = Runqueue.create ~kind:Runqueue.Ull ~cpu:1 ~id:1 () in
  let source, plan = paused_plan other [] in
  Alcotest.check_raises "wrong queue"
    (Invalid_argument "Runqueue.apply_merge: source list in a different arena")
    (fun () -> ignore (Runqueue.apply_merge q ~plan ~source));
  Alcotest.check_raises "normal queues keep no arrayB"
    (Invalid_argument "Runqueue.index: not an ull_runqueue") (fun () ->
      ignore (Runqueue.index (mk_queue ())))

(* ------------------------------------------------------------------ *)
(* Load tracking                                                       *)
(* ------------------------------------------------------------------ *)

let test_load_enqueue_decay () =
  let l = Load.create () in
  Alcotest.(check (float 0.0)) "initial" 0.0 (Load.load l);
  Load.on_enqueue l;
  let after_one = Load.load l in
  Alcotest.(check bool) "positive" true (after_one > 0.0);
  Load.decay l ~periods:32;
  Alcotest.(check (float 1e-9)) "halved after 32 periods" (after_one /. 2.0)
    (Load.load l)

let test_load_coalesced_equals_iterated () =
  let a = Load.create () and b = Load.create () in
  for _ = 1 to 36 do
    Load.on_enqueue a
  done;
  let pelt = Horse_coalesce.Coalesce.Affine.pelt in
  Load.on_enqueue_coalesced b
    (Horse_coalesce.Coalesce.Precomputed.make
       ~alpha:pelt.Horse_coalesce.Coalesce.Affine.alpha
       ~beta:pelt.Horse_coalesce.Coalesce.Affine.beta ~n:36);
  Alcotest.(check (float 1e-6)) "same load" (Load.load a) (Load.load b);
  Alcotest.(check int) "36 lock writes vanilla" 36 (Load.updates a);
  Alcotest.(check int) "1 lock write coalesced" 1 (Load.updates b)

let test_load_utilisation_clamped () =
  let l = Load.create () in
  Alcotest.(check (float 0.0)) "zero" 0.0 (Load.utilisation l);
  for _ = 1 to 10_000 do
    Load.on_enqueue l
  done;
  Alcotest.(check (float 1e-9)) "saturates at 1" 1.0 (Load.utilisation l)

let test_load_dequeue_floor () =
  let l = Load.create () in
  Load.on_dequeue l;
  Alcotest.(check (float 0.0)) "never negative" 0.0 (Load.load l)

(* ------------------------------------------------------------------ *)
(* Credit2                                                             *)
(* ------------------------------------------------------------------ *)

let test_credit2_pick_least () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ~index:0 ~credit:50 ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:10 ()));
  let v = Option.get (Credit2.pick_next q) in
  Alcotest.(check int) "least credit" 10 (Vcpu.credit v);
  Alcotest.(check bool) "running" true (Vcpu.state v = Vcpu.Running)

let test_credit2_reset_when_exhausted () =
  let q = mk_queue () in
  ignore (Runqueue.enqueue q (mk_vcpu ~index:0 ~credit:(-5) ()));
  ignore (Runqueue.enqueue q (mk_vcpu ~index:1 ~credit:(-20) ()));
  Alcotest.(check bool) "needs reset" true (Credit2.needs_reset q);
  let v = Option.get (Credit2.pick_next q) in
  Alcotest.(check bool) "topped up" true (Vcpu.credit v > 0);
  (* the most-starved vCPU still runs first after the uniform top-up *)
  Alcotest.(check int) "still least" (Vcpu.default_credit - 20) (Vcpu.credit v)

let test_credit2_charge () =
  let v = mk_vcpu ~credit:1000 () in
  Credit2.charge v ~ran_for:(Time.span_us 100.0);
  Alcotest.(check int) "burned 100us" 900 (Vcpu.credit v);
  Credit2.charge v ~ran_for:(Time.span_ns 10);
  Alcotest.(check int) "at least 1" 899 (Vcpu.credit v)

let test_credit2_empty () =
  let q = mk_queue () in
  Alcotest.(check bool) "no pick" true (Credit2.pick_next q = None);
  Alcotest.(check bool) "no reset" false (Credit2.needs_reset q)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let small_topology = Topology.create ~sockets:1 ~cores_per_socket:8 ()

let test_scheduler_create () =
  let s = Scheduler.create ~topology:small_topology () in
  Alcotest.(check int) "8 queues" 8 (Scheduler.cpu_count s);
  Alcotest.(check int) "1 ull" 1 (List.length (Scheduler.ull_runqueues s));
  Alcotest.(check bool) "last cpu reserved" true
    (Runqueue.is_ull (Scheduler.runqueue s ~cpu:7));
  Alcotest.(check bool) "first cpu normal" false
    (Runqueue.is_ull (Scheduler.runqueue s ~cpu:0))

let test_scheduler_ull_count_validation () =
  Alcotest.check_raises "too many"
    (Invalid_argument "Scheduler.create: bad ull_count") (fun () ->
      ignore (Scheduler.create ~ull_count:9 ~topology:small_topology ()))

let test_scheduler_select_normal_spreads () =
  let s = Scheduler.create ~topology:small_topology () in
  let q1 = Scheduler.select_normal s in
  ignore (Runqueue.enqueue q1 (mk_vcpu ()));
  Runqueue.track_enqueue q1;
  let q2 = Scheduler.select_normal s in
  Alcotest.(check bool) "avoids loaded queue" true
    (Runqueue.id q1 <> Runqueue.id q2);
  Alcotest.(check bool) "never ull" false (Runqueue.is_ull q2)

(* Attachment is the queue's subscriber count: pausing against a queue
   subscribes, resuming catches up and leaves. *)
let attach q = Runqueue.subscribe q ~events:(ref 0)

let resume_from q sub =
  let _, plan = paused_plan q [ 1 ] in
  Runqueue.catch_up q sub plan

let test_scheduler_ull_balance () =
  let s = Scheduler.create ~ull_count:2 ~topology:small_topology () in
  let q1 = Scheduler.select_ull_for_pause s in
  let s1 = attach q1 in
  let q2 = Scheduler.select_ull_for_pause s in
  Alcotest.(check bool) "balances" true (Runqueue.id q1 <> Runqueue.id q2);
  ignore (attach q2);
  resume_from q1 s1;
  let q3 = Scheduler.select_ull_for_pause s in
  Alcotest.(check int) "prefers emptier" (Runqueue.id q1) (Runqueue.id q3)

let test_scheduler_detach_guard () =
  let s = Scheduler.create ~topology:small_topology () in
  let q = Scheduler.select_ull_for_pause s in
  let sub = attach q in
  resume_from q sub;
  Alcotest.check_raises "none attached"
    (Invalid_argument "Runqueue.catch_up: not subscribed") (fun () ->
      resume_from q sub);
  Runqueue.unsubscribe q sub (* idempotent *);
  Alcotest.(check int) "detached" 0 (Runqueue.subscriber_count q)

let test_scheduler_add_ull () =
  let s = Scheduler.create ~topology:small_topology () in
  let q = Scheduler.add_ull_runqueue s in
  Alcotest.(check int) "2 ull queues" 2 (List.length (Scheduler.ull_runqueues s));
  Alcotest.(check bool) "converted" true (Runqueue.is_ull q);
  Alcotest.(check int) "highest free id picked" 6 (Runqueue.id q)

(* A reserved queue leaves the pick even when it is the least loaded,
   and comes back when it turns normal again. *)
let test_scheduler_reserved_leaves_pick () =
  let s = Scheduler.create ~topology:small_topology () in
  for cpu = 0 to 5 do
    let q = Scheduler.runqueue s ~cpu in
    ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:cpu ()));
    Runqueue.track_enqueue q
  done;
  Alcotest.(check int) "the idle queue" 6
    (Runqueue.cpu (Scheduler.select_normal s));
  let q = Scheduler.add_ull_runqueue s in
  Alcotest.(check bool) "reserved: not picked" false
    (Scheduler.select_normal s == q);
  Runqueue.set_kind q Runqueue.Normal;
  Alcotest.(check bool) "normal again: picked" true
    (Scheduler.select_normal s == q)

let test_scheduler_total_queued () =
  let s = Scheduler.create ~topology:small_topology () in
  Alcotest.(check int) "empty" 0 (Scheduler.total_queued s);
  ignore (Runqueue.enqueue (Scheduler.runqueue s ~cpu:0) (mk_vcpu ()));
  ignore (Runqueue.enqueue (Scheduler.runqueue s ~cpu:1) (mk_vcpu ~index:1 ()));
  Alcotest.(check int) "two" 2 (Scheduler.total_queued s)

(* The linear scan [select_normal] replaced: the first queue, in CPU
   order, that no later queue strictly beats on (tracked load,
   length).  The argmin tree must give the very same queue. *)
let scan_select_normal s =
  let better q best =
    let lq = Runqueue.load q and lb = Runqueue.load best in
    if lq < lb then true
    else if lq > lb then false
    else Runqueue.length q < Runqueue.length best
  in
  Array.fold_left
    (fun acc q ->
      if Runqueue.is_ull q then acc
      else
        match acc with
        | None -> Some q
        | Some b -> if better q b then Some q else acc)
    None (Scheduler.runqueues s)

module Placement = struct
  type op =
    | Enqueue of int * int  (** cpu, credit *)
    | Place of int  (** a boot's step: enqueue on the pick, then load *)
    | Dequeue of int  (** the k-th live vCPU, modulo *)
    | Pop of int  (** cpu *)
    | Track of int  (** cpu: vanilla load update *)
    | Track_coalesced of int * int  (** cpu, vCPUs covered *)
    | Track_dequeue of int  (** cpu *)
    | Add_ull

  let show = function
    | Enqueue (cpu, credit) -> Printf.sprintf "enqueue cpu%d c%d" cpu credit
    | Place credit -> Printf.sprintf "place c%d" credit
    | Dequeue k -> Printf.sprintf "dequeue #%d" k
    | Pop cpu -> Printf.sprintf "pop cpu%d" cpu
    | Track cpu -> Printf.sprintf "track cpu%d" cpu
    | Track_coalesced (cpu, n) -> Printf.sprintf "track cpu%d x%d" cpu n
    | Track_dequeue cpu -> Printf.sprintf "shed cpu%d" cpu
    | Add_ull -> "add_ull"

  let cpus = Topology.cpu_count Topology.r650_smt

  (* Half the draws hit the first 8 CPUs, so queues interact and ties
     on (load, length) keep coming up; the rest spread over all 144. *)
  let gen_cpu st =
    if Random.State.bool st then Random.State.int st 8
    else Random.State.int st cpus

  let gen st =
    let credit () = Random.State.int st 4 * 100 in
    match Random.State.int st 9 with
    | 0 -> Enqueue (gen_cpu st, credit ())
    | 1 | 2 -> Place (credit ())
    | 3 -> Dequeue (Random.State.int st 1000)
    | 4 -> Pop (gen_cpu st)
    | 5 -> Track (gen_cpu st)
    | 6 -> Track_coalesced (gen_cpu st, 1 + Random.State.int st 4)
    | 7 -> Track_dequeue (gen_cpu st)
    | _ -> Add_ull
end

let placement_spec =
  {
    Harness.name = "select_normal vs the scan";
    gen = Placement.gen;
    show = Placement.show;
    make =
      (fun () ->
        let s =
          Scheduler.create ~ull_count:16 ~topology:Topology.r650_smt ()
        in
        let live = ref [] and next = ref 0 in
        let vcpu credit =
          incr next;
          mk_vcpu ~sandbox:!next ~credit ()
        in
        let enqueue q v =
          let h, _ = Runqueue.enqueue q v in
          live := (q, h, v) :: !live
        in
        let q cpu = Scheduler.runqueue s ~cpu in
        fun op ->
          (match (op : Placement.op) with
          | Enqueue (cpu, credit) -> enqueue (q cpu) (vcpu credit)
          | Place credit ->
            let target = Scheduler.select_normal s in
            enqueue target (vcpu credit);
            Runqueue.track_enqueue target
          | Dequeue k -> (
            match !live with
            | [] -> ()
            | l ->
              let ((q, h, _) as e) = List.nth l (k mod List.length l) in
              ignore (Runqueue.dequeue q h);
              live := List.filter (fun e' -> e' != e) l)
          | Pop cpu -> (
            match Runqueue.pop_front (q cpu) with
            | None -> ()
            | Some v -> live := List.filter (fun (_, _, v') -> v' != v) !live)
          | Track cpu -> Runqueue.track_enqueue (q cpu)
          | Track_coalesced (cpu, n) ->
            Runqueue.track_enqueue_coalesced (q cpu)
              (Horse_coalesce.Coalesce.Precomputed.make
                 ~alpha:Horse_coalesce.Coalesce.Affine.pelt.alpha
                 ~beta:Horse_coalesce.Coalesce.Affine.pelt.beta ~n)
          | Track_dequeue cpu -> Runqueue.track_dequeue (q cpu)
          | Add_ull -> (
            try ignore (Scheduler.add_ull_runqueue s)
            with Invalid_argument _ -> ()));
          match scan_select_normal s with
          | None -> Some "the scan found no normal queue"
          | Some want ->
            let got = Scheduler.select_normal s in
            if got == want then None
            else
              Some
                (Printf.sprintf "select_normal gave cpu%d, the scan cpu%d"
                   (Runqueue.cpu got) (Runqueue.cpu want)));
  }

let test_select_normal_matches_scan () = Harness.check placement_spec

let test_select_normal_allocates_nothing () =
  let s = Scheduler.create ~ull_count:16 ~topology:Topology.r650_smt () in
  for i = 1 to 200 do
    let q = Scheduler.select_normal s in
    ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:i ()));
    Runqueue.track_enqueue q
  done;
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Scheduler.select_normal s))
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words" 0.0 (w2 -. w1 -. (w1 -. w0))

(* ------------------------------------------------------------------ *)
(* CPU executor                                                        *)
(* ------------------------------------------------------------------ *)

module Executor = Horse_sched.Cpu_executor
module Engine = Horse_sim.Engine

let executor_fixture () =
  let engine = Engine.create ~seed:17 () in
  let scheduler =
    Scheduler.create ~ull_count:1
      ~topology:(Topology.create ~sockets:1 ~cores_per_socket:4 ())
      ()
  in
  let ex =
    Executor.create_with_context_switch ~engine ~scheduler
      ~context_switch:(Time.span_ns 100) ()
  in
  (engine, scheduler, ex)

let test_executor_runs_one_task () =
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:0 in
  let done_at = ref None in
  Executor.submit ex ~queue ~vcpu:(mk_vcpu ()) ~work:(Time.span_us 5.0)
    ~on_done:(fun at -> done_at := Some at);
  Alcotest.(check int) "one outstanding" 1 (Executor.outstanding ex);
  Engine.run engine;
  (* 5us of work in one 10ms-slice bite + one context switch *)
  Alcotest.(check (option int)) "completion time" (Some 5_100)
    (Option.map Time.to_ns !done_at);
  Alcotest.(check int) "drained" 0 (Executor.outstanding ex)

let test_executor_timeslice_rotation () =
  (* §4.1.3's point: on the 1us-timeslice ull queue, a sub-us task
     behind a long task completes after at most one slice; on a
     normal 10ms-slice queue it waits out the incumbent. *)
  let latency_on kind =
    let engine, scheduler, ex = executor_fixture () in
    let cpu = match kind with Runqueue.Ull -> 3 | Runqueue.Normal -> 0 in
    let queue = Scheduler.runqueue scheduler ~cpu in
    (* long incumbent: 200us of work, enqueued first *)
    Executor.submit ex ~queue ~vcpu:(mk_vcpu ~sandbox:1 ())
      ~work:(Time.span_us 200.0) ~on_done:(fun _ -> ());
    (* the uLL task arrives 2us later *)
    let ull_done = ref None in
    ignore
      (Engine.schedule engine ~after:(Time.span_us 2.0) (fun _ ->
           Executor.submit ex ~queue
             ~vcpu:(mk_vcpu ~sandbox:2 ~credit:1 ())
             ~work:(Time.span_ns 700)
             ~on_done:(fun at -> ull_done := Some (Time.to_ns at))));
    Engine.run engine;
    Option.get !ull_done
  in
  let on_ull = latency_on Runqueue.Ull in
  let on_normal = latency_on Runqueue.Normal in
  (* ull queue: done within a few microseconds; normal queue: waits
     out the incumbent's 200us *)
  Alcotest.(check bool)
    (Printf.sprintf "ull fast (%dns)" on_ull)
    true (on_ull < 10_000);
  Alcotest.(check bool)
    (Printf.sprintf "normal slow (%dns)" on_normal)
    true (on_normal > 200_000);
  Alcotest.(check bool) "order of magnitude apart" true
    (on_normal / on_ull > 10)

let test_executor_least_credit_priority () =
  (* the paper's run-queue order (least remaining credit first) gives
     strict priority: a vCPU that has run keeps winning the queue, so
     equal submissions complete sequentially, not round-robin *)
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:3 (* ull: 1us slices *) in
  let finished = ref [] in
  List.iter
    (fun id ->
      Executor.submit ex ~queue ~vcpu:(mk_vcpu ~sandbox:id ())
        ~work:(Time.span_us 5.0)
        ~on_done:(fun at -> finished := (id, Time.to_ns at) :: !finished))
    [ 1; 2 ];
  Engine.run engine;
  match List.rev !finished with
  | [ (first, t1); (second, t2) ] ->
    Alcotest.(check int) "first submitted finishes first" 1 first;
    Alcotest.(check int) "second follows" 2 second;
    (* 5 slices of (1us + 100ns switch) each *)
    Alcotest.(check int) "first at 5.5us" 5_500 t1;
    Alcotest.(check int) "second at 11us" 11_000 t2
  | _ -> Alcotest.fail "expected two completions"

let test_executor_validation () =
  let _, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:0 in
  let vcpu = mk_vcpu () in
  Alcotest.check_raises "zero work"
    (Invalid_argument "Cpu_executor.submit: work must be positive") (fun () ->
      Executor.submit ex ~queue ~vcpu ~work:Time.span_zero ~on_done:ignore);
  Executor.submit ex ~queue ~vcpu ~work:(Time.span_us 1.0) ~on_done:ignore;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Cpu_executor.submit: vCPU already has outstanding work")
    (fun () ->
      Executor.submit ex ~queue ~vcpu ~work:(Time.span_us 1.0) ~on_done:ignore)

let test_executor_feeds_psm_subscribers () =
  (* work churning an ull queue must keep paused plans maintained *)
  let engine, scheduler, ex = executor_fixture () in
  let queue = Scheduler.runqueue scheduler ~cpu:3 in
  let events = ref 0 in
  let source, plan = paused_plan queue [ 5_000; 20_000 ] in
  let sub = Runqueue.subscribe queue ~events in
  Executor.submit ex ~queue ~vcpu:(mk_vcpu ()) ~work:(Time.span_us 3.0)
    ~on_done:(fun _ -> ());
  Engine.run engine;
  (* 3 slices: 1 initial enqueue + 2 re-enqueues + 3 pops = 6 events *)
  Alcotest.(check int) "notifications flowed" 6 !events;
  Runqueue.catch_up queue sub plan;
  Alcotest.(check bool) "plan caught up" true (fresh_against queue ~source plan)

(* ------------------------------------------------------------------ *)
(* PELT                                                                *)
(* ------------------------------------------------------------------ *)

module Pelt = Horse_sched.Pelt

let test_pelt_decay_halves_at_32 () =
  (* kernel-faithful: the shift gives the exact half, then the 0.32
     fixed-point multiply by y^0 = 0xffffffff truncates one ulp *)
  Alcotest.(check int) "halving (one truncation ulp)" 499
    (Pelt.decay_load 1000 ~periods:32);
  Alcotest.(check int) "quartering" 249 (Pelt.decay_load 1000 ~periods:64);
  Alcotest.(check int) "identity" 1000 (Pelt.decay_load 1000 ~periods:0);
  Alcotest.(check int) "deep decay to zero" 0
    (Pelt.decay_load Pelt.load_avg_max ~periods:4000)

let test_pelt_decay_monotone () =
  let prev = ref max_int in
  for k = 0 to 120 do
    let v = Pelt.decay_load 40_000 ~periods:k in
    Alcotest.(check bool) "non-increasing" true (v <= !prev);
    prev := v
  done

let test_pelt_table_bounds () =
  Alcotest.(check int32) "y^0 = ~1.0" 0xffffffffl (Pelt.decay_multiplier 0);
  (* y^16 = sqrt(1/2) ~ 0.7071 in 0.32 fixed point *)
  Alcotest.(check int32) "y^16" 0xb504f333l (Pelt.decay_multiplier 16);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Pelt.decay_multiplier: k outside [0,31]") (fun () ->
      ignore (Pelt.decay_multiplier 32))

let test_pelt_entity_saturates () =
  let e = Pelt.create () in
  (* run flat out for 400 periods: converge near LOAD_AVG_MAX *)
  Pelt.update e ~now_us:(400 * Pelt.period_us) ~running:true;
  let v = Pelt.load_avg e in
  Alcotest.(check bool)
    (Printf.sprintf "near max (%d)" v)
    true
    (v > Pelt.load_avg_max * 95 / 100 && v <= Pelt.load_avg_max);
  Alcotest.(check bool) "utilisation ~1" true (Pelt.utilisation e > 0.95)

let test_pelt_entity_sleep_decays () =
  let e = Pelt.create () in
  Pelt.update e ~now_us:(100 * Pelt.period_us) ~running:true;
  let busy = Pelt.load_avg e in
  Pelt.update e ~now_us:(132 * Pelt.period_us) ~running:false;
  let rested = Pelt.load_avg e in
  (* 32 idle periods halve the average *)
  Alcotest.(check bool)
    (Printf.sprintf "halved (%d -> %d)" busy rested)
    true
    (abs (rested - (busy / 2)) <= busy / 50)

let test_pelt_entity_duty_cycle () =
  let e = Pelt.create () in
  (* 50% duty cycle: alternate one period running, one sleeping *)
  for i = 0 to 399 do
    Pelt.update e ~now_us:((i + 1) * Pelt.period_us) ~running:(i mod 2 = 0)
  done;
  let u = Pelt.utilisation e in
  Alcotest.(check bool)
    (Printf.sprintf "utilisation ~0.5 (%f)" u)
    true
    (u > 0.40 && u < 0.60)

let test_pelt_clock_regression () =
  let e = Pelt.create () in
  Pelt.update e ~now_us:100 ~running:true;
  Alcotest.check_raises "regression"
    (Invalid_argument "Pelt.update: clock went backwards") (fun () ->
      Pelt.update e ~now_us:50 ~running:true)

let test_pelt_runqueue_sum () =
  let e1 = Pelt.create () and e2 = Pelt.create () in
  Pelt.update e1 ~now_us:(200 * Pelt.period_us) ~running:true;
  Pelt.update e2 ~now_us:(200 * Pelt.period_us) ~running:true;
  let s = Pelt.Runqueue_sum.create () in
  Pelt.Runqueue_sum.attach s e1;
  Pelt.Runqueue_sum.attach s e2;
  Alcotest.(check int) "sum of both"
    (Pelt.load_avg e1 + Pelt.load_avg e2)
    (Pelt.Runqueue_sum.total s);
  Alcotest.(check (float 1e-9)) "utilisation clamps" 1.0
    (Pelt.Runqueue_sum.utilisation s);
  Pelt.Runqueue_sum.detach s e1;
  Pelt.Runqueue_sum.detach s e2;
  Alcotest.(check int) "empty again" 0 (Pelt.Runqueue_sum.total s)

let prop_pelt_decay_split =
  QCheck2.Test.make
    ~name:"decay(v, a+b) ~= decay(decay(v, a), b) within rounding" ~count:300
    QCheck2.Gen.(triple (0 -- Pelt.load_avg_max) (0 -- 100) (0 -- 100))
    (fun (v, a, b) ->
      let joint = Pelt.decay_load v ~periods:(a + b) in
      let split = Pelt.decay_load (Pelt.decay_load v ~periods:a) ~periods:b in
      (* each truncating step loses at most a few ulps *)
      abs (joint - split) <= 4 + (v / 10_000))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_runqueue_always_sorted =
  QCheck2.Test.make ~name:"run queue stays credit-sorted under churn" ~count:200
    QCheck2.Gen.(list_size (1 -- 60) (0 -- 1000))
    (fun credits ->
      let q = mk_queue () in
      let nodes =
        List.mapi
          (fun index credit ->
            fst (Runqueue.enqueue q (mk_vcpu ~index ~credit ())))
          credits
      in
      (* remove every third node, then check the sort invariant *)
      List.iteri
        (fun i node -> if i mod 3 = 0 then ignore (Runqueue.dequeue q node))
        nodes;
      Al.is_sorted (Runqueue.queue q))

let prop_merge_positions_track_subscriber =
  QCheck2.Test.make
    ~name:"subscriber replaying merge notifications reconstructs the queue"
    ~count:200
    QCheck2.Gen.(
      triple
        (list_size (0 -- 20) (0 -- 100))
        (list_size (0 -- 20) (0 -- 100))
        (list_size (1 -- 5) (0 -- 100)))
    (fun (queue_credits, source_credits, bystander_credits) ->
      let q = mk_queue ~kind:Runqueue.Ull () in
      List.iteri
        (fun index credit ->
          ignore (Runqueue.enqueue q (mk_vcpu ~sandbox:2 ~index ~credit ())))
        queue_credits;
      (* a bystander paused before the merge catches up at resume, then
         merges itself: the queue must end up the sorted union *)
      let by_source, bystander = paused_plan ~sandbox:4 q bystander_credits in
      let sub = Runqueue.subscribe q ~events:(ref 0) in
      let source, plan = paused_plan ~sandbox:3 q source_credits in
      ignore (Runqueue.apply_merge q ~plan ~source);
      Runqueue.catch_up q sub bystander;
      fresh_against q ~source:by_source bystander
      &&
      (ignore (Runqueue.apply_merge q ~plan:bystander ~source:by_source);
       List.map Vcpu.credit (Al.to_list (Runqueue.queue q))
       = List.sort compare (queue_credits @ source_credits @ bystander_credits)))

(* The property: random interleavings of every queue mutation with
   paused subscribers joining, resuming and leaving. *)
let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun c -> Enq c) (0 -- 60));
        (3, map (fun i -> Deq i) (0 -- 1000));
        (2, pure Pop);
        (2, map (fun cs -> Join cs) (list_size (1 -- 4) (0 -- 60)));
        (1, map (fun i -> Resume i) (0 -- 100));
        (1, map (fun i -> Leave i) (0 -- 100));
      ])

let prop_deferred_equals_eager =
  QCheck2.Test.make
    ~name:"deferred plan maintenance == eager, under joins, resumes and leaves"
    ~count:300
    QCheck2.Gen.(
      pair (list_size (0 -- 6) (list_size (1 -- 4) (0 -- 60)))
        (list_size (0 -- 150) op_gen))
    (fun (initial, ops) ->
      let failures, _ =
        run_deferred_script (List.map (fun cs -> Join cs) initial @ ops)
      in
      if failures <> [] then
        QCheck2.Test.fail_reportf "failed checks: %s"
          (String.concat ", " failures);
      true)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_runqueue_always_sorted;
      prop_merge_positions_track_subscriber;
      prop_deferred_equals_eager;
      prop_pelt_decay_split;
    ]

let () =
  Alcotest.run "horse_sched"
    [
      ( "vcpu",
        [
          Alcotest.test_case "basics" `Quick test_vcpu_basics;
          Alcotest.test_case "credit ops" `Quick test_vcpu_credit_ops;
          Alcotest.test_case "ordering" `Quick test_vcpu_ordering;
        ] );
      ( "runqueue",
        [
          Alcotest.test_case "sorted by credit" `Quick
            test_runqueue_sorted_by_credit;
          Alcotest.test_case "dequeue" `Quick test_runqueue_dequeue;
          Alcotest.test_case "timeslices" `Quick test_runqueue_timeslices;
          Alcotest.test_case "set_kind guard" `Quick test_runqueue_set_kind_guard;
          Alcotest.test_case "notifications" `Quick test_runqueue_notifications;
          Alcotest.test_case "pop_front notifies" `Quick
            test_runqueue_pop_front_notifies;
          Alcotest.test_case "apply_merge" `Quick test_runqueue_apply_merge;
          Alcotest.test_case "merge guards queue identity" `Quick
            test_runqueue_merge_wrong_index_rejected;
          Alcotest.test_case "deterministic notify, seed 1" `Quick
            (test_subscriber_determinism 1);
          Alcotest.test_case "deterministic notify, seed 42" `Quick
            (test_subscriber_determinism 42);
          Alcotest.test_case "deterministic notify, seed 1337" `Quick
            (test_subscriber_determinism 1337);
          Alcotest.test_case "replay keeps the logged key" `Quick
            test_replay_keeps_logged_key;
        ] );
      ( "load",
        [
          Alcotest.test_case "enqueue + decay" `Quick test_load_enqueue_decay;
          Alcotest.test_case "coalesced == iterated" `Quick
            test_load_coalesced_equals_iterated;
          Alcotest.test_case "utilisation clamps" `Quick
            test_load_utilisation_clamped;
          Alcotest.test_case "dequeue floor" `Quick test_load_dequeue_floor;
        ] );
      ( "credit2",
        [
          Alcotest.test_case "pick least" `Quick test_credit2_pick_least;
          Alcotest.test_case "reset on exhaustion" `Quick
            test_credit2_reset_when_exhausted;
          Alcotest.test_case "charge" `Quick test_credit2_charge;
          Alcotest.test_case "empty queue" `Quick test_credit2_empty;
        ] );
      ( "executor",
        [
          Alcotest.test_case "runs one task" `Quick test_executor_runs_one_task;
          Alcotest.test_case "timeslice rotation" `Quick
            test_executor_timeslice_rotation;
          Alcotest.test_case "least-credit priority" `Quick
            test_executor_least_credit_priority;
          Alcotest.test_case "validation" `Quick test_executor_validation;
          Alcotest.test_case "feeds P2SM subscribers" `Quick
            test_executor_feeds_psm_subscribers;
        ] );
      ( "pelt",
        [
          Alcotest.test_case "decay halves at 32" `Quick
            test_pelt_decay_halves_at_32;
          Alcotest.test_case "decay monotone" `Quick test_pelt_decay_monotone;
          Alcotest.test_case "table bounds" `Quick test_pelt_table_bounds;
          Alcotest.test_case "entity saturates" `Quick test_pelt_entity_saturates;
          Alcotest.test_case "sleep decays" `Quick test_pelt_entity_sleep_decays;
          Alcotest.test_case "duty cycle" `Quick test_pelt_entity_duty_cycle;
          Alcotest.test_case "clock regression" `Quick test_pelt_clock_regression;
          Alcotest.test_case "runqueue sum" `Quick test_pelt_runqueue_sum;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "create" `Quick test_scheduler_create;
          Alcotest.test_case "ull_count validation" `Quick
            test_scheduler_ull_count_validation;
          Alcotest.test_case "select_normal spreads" `Quick
            test_scheduler_select_normal_spreads;
          Alcotest.test_case "ull balance" `Quick test_scheduler_ull_balance;
          Alcotest.test_case "detach guard" `Quick test_scheduler_detach_guard;
          Alcotest.test_case "add ull queue" `Quick test_scheduler_add_ull;
          Alcotest.test_case "total queued" `Quick test_scheduler_total_queued;
          Alcotest.test_case "reserved queue leaves the pick" `Quick
            test_scheduler_reserved_leaves_pick;
          Alcotest.test_case "select_normal == scan under churn" `Quick
            test_select_normal_matches_scan;
          Alcotest.test_case "select_normal allocates nothing" `Quick
            test_select_normal_allocates_nothing;
        ] );
      ("properties", props);
    ]
