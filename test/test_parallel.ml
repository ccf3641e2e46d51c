(* Tests for Horse_parallel: the persistent domain team's barrier
   rounds, its self-scheduling [map] (result ordering, exception
   propagation, inline nesting), deterministic seed splitting, and the
   headline guarantee that parallel experiment sweeps are
   bit-identical to sequential ones. *)

module Team = Horse_parallel.Team
module Rng = Horse_sim.Rng
module E = Horse.Experiments

(* ------------------------------------------------------------------ *)
(* Team.map lifecycle & ordering                                       *)
(* ------------------------------------------------------------------ *)

let test_map_lifecycle () =
  let team = Team.create ~width:4 () in
  Alcotest.(check int) "width" 4 (Team.width team);
  Alcotest.(check (list int)) "runs" [ 1; 2; 3 ]
    (Team.map team ~f:(fun _ x -> x) [ 1; 2; 3 ]);
  Team.shutdown team;
  Team.shutdown team (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Team.map: team is shut down") (fun () ->
      ignore (Team.map team ~f:(fun _ x -> x) [ 0 ]))

let test_rejects_zero_width () =
  Alcotest.check_raises "create" (Invalid_argument "Team.create: width < 1")
    (fun () -> ignore (Team.create ~width:0 ()));
  Alcotest.check_raises "shared" (Invalid_argument "Team.shared: width < 1")
    (fun () -> ignore (Team.shared ~width:0))

(* deliberately unbalanced tasks: completion order differs wildly
   from submission order, results must not *)
let skewed_square i x =
  let spin = Atomic.make 0 in
  for _ = 1 to (i mod 13) * 10_000 do
    Atomic.incr spin
  done;
  ignore (Atomic.get spin);
  x * x

let test_map_preserves_order () =
  let xs = List.init 200 Fun.id in
  let expected = List.mapi skewed_square xs in
  Team.with_team ~width:4 (fun team ->
      Alcotest.(check (list int))
        "task order, not completion order" expected
        (Team.map team ~f:skewed_square xs))

let test_width1_is_inline () =
  (* width = 1 must not spawn: tasks run on the calling domain *)
  let self = Domain.self () in
  Team.with_team ~width:1 (fun team ->
      Alcotest.(check int) "no domains" 0 (Team.domains team);
      let domains =
        Team.map team ~f:(fun _ () -> Domain.self ()) (List.init 5 ignore)
      in
      List.iter
        (fun d -> Alcotest.(check bool) "same domain" true (d = self))
        domains)

let test_nested_map () =
  (* a task may itself fan out on the same team: the nested map runs
     inline, so this must not deadlock even with more tasks than
     strands *)
  Team.with_team ~width:3 (fun team ->
      let totals =
        Team.map team
          ~f:(fun i _ ->
            List.fold_left ( + ) 0
              (Team.map team ~f:(fun j _ -> (10 * i) + j) (List.init 8 Fun.id)))
          (List.init 4 Fun.id)
      in
      Alcotest.(check (list int)) "nested results"
        (List.init 4 (fun i -> (80 * i) + 28))
        totals)

(* ------------------------------------------------------------------ *)
(* Exception propagation                                               *)
(* ------------------------------------------------------------------ *)

let test_map_exception_propagation () =
  Team.with_team ~width:4 (fun team ->
      let completed = Array.make 16 false in
      let task i () =
        if i = 11 then failwith "task-11"
        else if i = 5 then failwith "task-5"
        else completed.(i) <- true
      in
      (* the lowest-indexed failure wins, whatever the schedule *)
      Alcotest.check_raises "first failure by index" (Failure "task-5")
        (fun () -> ignore (Team.map team ~f:task (List.init 16 ignore)));
      (* the batch settled: every non-failing task still ran *)
      Array.iteri
        (fun i done_ ->
          Alcotest.(check bool)
            (Printf.sprintf "task %d settled" i)
            (i <> 5 && i <> 11) done_)
        completed;
      (* and the team survives for the next batch *)
      Alcotest.(check (list int)) "team still usable" [ 7 ]
        (Team.map team ~f:(fun _ x -> x) [ 7 ]))

let test_map_exception_inline () =
  Team.with_team ~width:1 (fun team ->
      Alcotest.check_raises "inline too" (Failure "boom") (fun () ->
          ignore (Team.map team ~f:(fun _ () -> failwith "boom") [ () ])))

let test_shared_team () =
  let width = Team.default_width () in
  let a = Team.shared ~width and b = Team.shared ~width in
  Alcotest.(check bool) "one process-wide team per width" true (a == b);
  Alcotest.(check (list int)) "usable" [ 0; 1; 4; 9 ]
    (Team.map a ~f:(fun i _ -> i * i) (List.init 4 Fun.id))

(* ------------------------------------------------------------------ *)
(* Deterministic seed splitting                                        *)
(* ------------------------------------------------------------------ *)

let draw ~rng _i _x = Rng.int rng 1_000_000

let test_map_seeded_width_invariant () =
  let xs = List.init 64 Fun.id in
  let seeded width =
    Team.with_team ~width (fun t -> Team.map_seeded t ~seed:42 ~f:draw xs)
  in
  let seq = seeded 1 and par = seeded 4 in
  Alcotest.(check (list int)) "streams independent of width" seq par;
  Alcotest.(check (list int)) "and reproducible" par (seeded 4)

let test_map_seeded_streams_differ () =
  let xs = List.init 32 Fun.id in
  let draws =
    Team.with_team ~width:1 (fun t -> Team.map_seeded t ~seed:7 ~f:draw xs)
  in
  let distinct = List.sort_uniq Int.compare draws in
  (* 32 six-digit draws colliding would be a broken derivation *)
  Alcotest.(check int) "per-index streams differ" (List.length draws)
    (List.length distinct)

(* ------------------------------------------------------------------ *)
(* Nesting: sharded clusters and maps inside a running map             *)
(* ------------------------------------------------------------------ *)

module Engine = Horse_sim.Engine
module Time = Horse_sim.Time_ns
module Sandbox = Horse_vmm.Sandbox
module Platform = Horse_faas.Platform
module Cluster = Horse_faas.Cluster
module Function_def = Horse_faas.Function_def

(* A small 2-server storm on a 2-shard cluster, whose [Cluster.run]
   drives [Team.shared ~width:2] itself; returns every completion. *)
let sharded_storm_rows seed =
  let cluster =
    Cluster.create_sharded ~servers:2
      ~topology:(Horse_cpu.Topology.create ~sockets:1 ~cores_per_socket:8 ())
      ~seed ~shards:2 ()
  in
  Cluster.register cluster
    (Function_def.create ~name:"ull" ~vcpus:2 ~memory_mb:512
       ~exec:(Function_def.Ull Horse_workload.Category.Cat2) ());
  Cluster.provision cluster ~name:"ull" ~total:6 ~strategy:Sandbox.Horse;
  let rng = Rng.create ~seed:(seed + 1) in
  for _ = 1 to 100 do
    let after = Time.span_ns (Rng.int rng 20_000_000) in
    ignore
      (Engine.schedule (Cluster.engine cluster) ~after (fun _ ->
           ignore
             (Cluster.trigger cluster ~name:"ull"
                ~mode:(Platform.Warm Sandbox.Horse) ())))
  done;
  Cluster.run cluster;
  List.rev
    (Cluster.fold_records cluster ~init:[] ~f:(fun acc server slot ->
         let r = Platform.record_of_slot (Cluster.server cluster server) slot in
         ( server,
           Platform.mode_name r.Platform.mode,
           Time.to_ns r.Platform.triggered_at,
           Time.to_ns r.Platform.completed_at )
         :: acc))

let test_sharded_cluster_inside_map () =
  (* the outer map and each task's sharded run share one team: the
     nested rounds must run inline instead of coordinating the team
     from two domains at once *)
  let rows width =
    Team.map (Team.shared ~width) ~f:(fun _ seed -> sharded_storm_rows seed)
      [ 1; 42 ]
  in
  let reference = rows 1 in
  List.iter
    (fun storm ->
      Alcotest.(check bool)
        "storm completed triggers" true
        (List.length storm > 50))
    reference;
  Alcotest.(check bool) "width 2 == width 1" true (rows 2 = reference)

let test_map_inside_map_same_team () =
  let team = Team.shared ~width:4 in
  let outer =
    Team.map team
      ~f:(fun i _ ->
        let self = Domain.self () in
        Team.map team
          ~f:(fun j _ -> ((10 * i) + j, Domain.self () = self))
          (List.init 8 Fun.id))
      (List.init 6 Fun.id)
  in
  Alcotest.(check (list (list int)))
    "sequential result"
    (List.init 6 (fun i -> List.init 8 (fun j -> (10 * i) + j)))
    (List.map (List.map fst) outer);
  Alcotest.(check bool)
    "inner tasks ran inline on their outer task's domain" true
    (List.for_all (List.for_all snd) outer)

(* ------------------------------------------------------------------ *)
(* Experiments: parallel == sequential, bit for bit                    *)
(* ------------------------------------------------------------------ *)

let test_table1_jobs_invariant () =
  List.iter
    (fun seed ->
      let sequential = E.table1 ~seed ~jobs:1 () in
      let parallel = E.table1 ~seed ~jobs:4 () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: jobs:4 == jobs:1" seed)
        true
        (sequential = parallel))
    [ 1; 42; 1337 ]

let test_fig2_fig3_jobs_invariant () =
  let f2s = E.fig2 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:1 () in
  let f2p = E.fig2 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:3 () in
  Alcotest.(check bool) "fig2" true (f2s = f2p);
  let f3s = E.fig3 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:1 () in
  let f3p = E.fig3 ~repeats:2 ~vcpus:[ 1; 8; 36 ] ~jobs:4 () in
  Alcotest.(check bool) "fig3" true (f3s = f3p)

let test_overhead_colocation_jobs_invariant () =
  let os = E.overhead ~vcpus:[ 1; 8 ] ~jobs:1 () in
  let op = E.overhead ~vcpus:[ 1; 8 ] ~jobs:2 () in
  Alcotest.(check bool) "overhead" true (os = op);
  let cs = E.colocation ~duration_s:5.0 ~repeats:2 ~vcpus:[ 1; 36 ] ~jobs:1 () in
  let cp = E.colocation ~duration_s:5.0 ~repeats:2 ~vcpus:[ 1; 36 ] ~jobs:4 () in
  Alcotest.(check bool) "colocation" true (cs = cp)

(* ------------------------------------------------------------------ *)
(* Team: persistent barrier rounds                                     *)
(* ------------------------------------------------------------------ *)

let test_team_runs_every_strand () =
  Team.with_team ~width:4 (fun team ->
      let hits = Array.make 4 0 in
      let rounds = 100 in
      for _ = 1 to rounds do
        (* each strand writes only its own slot; the barrier's
           happens-before makes the writes visible here *)
        Team.run team (fun w -> hits.(w) <- hits.(w) + 1)
      done;
      Alcotest.(check (list int))
        "every strand ran every round"
        [ rounds; rounds; rounds; rounds ]
        (Array.to_list hits);
      Alcotest.(check int) "rounds counted" rounds (Team.rounds team))

let test_team_width1_inline () =
  Team.with_team ~width:1 (fun team ->
      Alcotest.(check int) "no domains" 0 (Team.domains team);
      let ran = ref false in
      Team.run team (fun w ->
          Alcotest.(check int) "strand 0" 0 w;
          ran := true);
      Alcotest.(check bool) "ran inline" true !ran)

let test_team_worker_cap () =
  (* never more workers than strands-1 or cores-1: on this host that
     bound is what keeps barrier rounds off the context-switch path *)
  Team.with_team ~width:8 (fun team ->
      let cap = min 7 (max 0 (Domain.recommended_domain_count () - 1)) in
      Alcotest.(check int) "workers capped" cap (Team.domains team))

let test_team_exception_lowest_strand () =
  Team.with_team ~width:4 (fun team ->
      let survivors = Array.make 4 false in
      let raised =
        try
          Team.run team (fun w ->
              survivors.(w) <- true;
              if w = 1 || w = 3 then failwith (Printf.sprintf "strand %d" w));
          "none"
        with Failure m -> m
      in
      Alcotest.(check string) "lowest strand wins" "strand 1" raised;
      (* a failing strand must not stop the others from running *)
      Alcotest.(check (list bool))
        "all strands still ran"
        [ true; true; true; true ]
        (Array.to_list survivors);
      (* the team survives a failed round *)
      let ok = ref 0 in
      Team.run team (fun _ -> incr ok);
      Alcotest.(check int) "team reusable after failure" 4 !ok)

let test_team_shutdown_rejects_run () =
  let team = Team.create ~width:2 () in
  Team.run team ignore;
  Team.shutdown team;
  Team.shutdown team;
  (* idempotent *)
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Team.run: team is shut down") (fun () ->
      Team.run team ignore)

let test_team_shared_cached () =
  let a = Team.shared ~width:3 and b = Team.shared ~width:3 in
  Alcotest.(check bool) "same team per width" true (a == b);
  Alcotest.(check bool)
    "distinct widths distinct teams" false
    (Team.shared ~width:2 == a)

(* ------------------------------------------------------------------ *)
(* P²SM's parallel merge on the shared team                            *)
(* ------------------------------------------------------------------ *)

let test_psm_merge_on_pool () =
  let module Al = Horse_psm.Arena_list in
  let module Psm = Horse_psm.Psm in
  let rng = Rng.create ~seed:99 in
  let sorted n = List.sort Int.compare (List.init n (fun _ -> Rng.int rng 1000)) in
  let source_values = sorted 36 and target_values = sorted 256 in
  let merged strategy =
    let arena = Al.create_arena ~compare:Int.compare () in
    let source = Al.of_sorted_list arena source_values in
    let target = Al.of_sorted_list arena target_values in
    let index = Psm.Index.build target in
    let plan = Psm.Plan.build ~source ~index in
    (match strategy with
    | `Sequential -> ignore (Psm.Plan.execute plan ~index ~source)
    | `Team n -> ignore (Psm.Plan.execute_parallel ~domains:n plan ~index ~source));
    Al.to_list target
  in
  let reference = merged `Sequential in
  List.iter
    (fun n ->
      Alcotest.(check (list int))
        (Printf.sprintf "domains:%d == sequential" n)
        reference
        (merged (`Team n)))
    [ 1; 2; 4; 8 ]

let () =
  Alcotest.run "horse_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "lifecycle" `Quick test_map_lifecycle;
          Alcotest.test_case "rejects jobs<1" `Quick test_rejects_zero_width;
          Alcotest.test_case "map order" `Quick test_map_preserves_order;
          Alcotest.test_case "jobs=1 inline" `Quick test_width1_is_inline;
          Alcotest.test_case "nested submission" `Quick test_nested_map;
          Alcotest.test_case "exception propagation" `Quick
            test_map_exception_propagation;
          Alcotest.test_case "exception inline" `Quick
            test_map_exception_inline;
          Alcotest.test_case "shared pool" `Quick test_shared_team;
        ] );
      ( "seed-splitting",
        [
          Alcotest.test_case "jobs-invariant" `Quick
            test_map_seeded_width_invariant;
          Alcotest.test_case "streams differ" `Quick
            test_map_seeded_streams_differ;
        ] );
      ( "nesting",
        [
          Alcotest.test_case "sharded cluster inside map" `Quick
            test_sharded_cluster_inside_map;
          Alcotest.test_case "map inside map, same team" `Quick
            test_map_inside_map_same_team;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "table1 seeds 1/42/1337" `Slow
            test_table1_jobs_invariant;
          Alcotest.test_case "fig2+fig3" `Slow test_fig2_fig3_jobs_invariant;
          Alcotest.test_case "overhead+colocation" `Slow
            test_overhead_colocation_jobs_invariant;
        ] );
      ( "team",
        [
          Alcotest.test_case "every strand every round" `Quick
            test_team_runs_every_strand;
          Alcotest.test_case "width=1 inline" `Quick test_team_width1_inline;
          Alcotest.test_case "worker cap" `Quick test_team_worker_cap;
          Alcotest.test_case "exception lowest strand" `Quick
            test_team_exception_lowest_strand;
          Alcotest.test_case "shutdown" `Quick test_team_shutdown_rejects_run;
          Alcotest.test_case "shared cache" `Quick test_team_shared_cached;
        ] );
      ( "psm",
        [ Alcotest.test_case "merge on pool" `Quick test_psm_merge_on_pool ] );
    ]
