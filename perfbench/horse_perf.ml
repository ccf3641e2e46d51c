(* The simulator-cost benchmark.

   Usage: horse_perf.exe --workload W --seed N --seconds S --trace 0|1
            [--shards K] [--spans FILE]

   It measures host cost per simulated trigger; the simulated results
   are outputs that must not change, and are checked.  With --trace 0
   it repeats set-up + run cycles for S seconds and reports the
   median of each end-to-end metric; with --trace 1 it makes three
   untraced cycles (the reference) and one traced cycle and reports
   the per-layer metrics (see traced.ml).  --shards overrides the
   workload's execution strands (results must not change).  The last
   line of standard output is one JSON object: {"correct", "attempted",
   "failed", "metrics"}. *)

module W = Workload

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* The untraced measurement                                            *)
(* ------------------------------------------------------------------ *)

let min_cycles = 3

let measure spec ~seconds =
  let start = Clock.now_ns () in
  let rec loop acc =
    let elapsed = Clock.seconds (Clock.now_ns () - start) in
    if List.length acc >= min_cycles && elapsed >= seconds then List.rev acc
    else loop (Cycle.cycle spec :: acc)
  in
  loop []

let end_to_end spec ~seconds =
  ignore (Calibrate.kernel_ns ()) (* the first run pays page faults *);
  let cycles = measure spec ~seconds in
  let first = List.hd cycles in
  let arrivals = float_of_int (Cycle.arrivals spec) in
  (* the simulation is deterministic: every cycle must agree *)
  let deterministic =
    List.for_all (fun c -> Cycle.digests c = Cycle.digests first) cycles
  in
  if not deterministic then
    prerr_endline "horse_perf: cycles disagree on the record digest";
  let failed = List.fold_left (fun acc c -> acc + Cycle.violations c) 0 cycles in
  let completed = Cycle.completed first in
  (* times are host-speed normalized per cycle (see calibrate.ml) *)
  let speed c = Calibrate.speed ~kernel_ns:c.Cycle.kernel_ns in
  let ns_per_trigger =
    median
      (List.map (fun c -> float_of_int c.Cycle.run_ns *. speed c /. arrivals) cycles)
  in
  let words_per_trigger =
    median (List.map (fun c -> c.Cycle.run_words /. arrivals) cycles)
  in
  let setup_s =
    median
      (List.concat_map
         (fun c -> List.map (fun s -> s *. speed c) c.Cycle.setups_s)
         cycles)
  in
  (* failed_frac is 0 on most workloads, so it is printed for people
     but the gated metric is its complement, completed_frac; the peak
     heap swings with GC timing on two domains, so it is printed and the
     gated metric is the live heap after the run *)
  let failed_frac =
    Printf.sprintf "%-44s %18s ratio" "failed_frac"
      (Output.json_float
         (float_of_int (Cycle.arrivals spec - completed + Cycle.violations first)
         /. arrivals))
  in
  Output.result
    ~meta:
      (Output.meta spec
         ~run_ns:(List.map (fun c -> c.Cycle.run_ns) cycles)
         ~kernel_ns:(List.map (fun c -> c.Cycle.kernel_ns) cycles))
    ~extra:
      [
        failed_frac;
        Printf.sprintf "%-44s %18s MB" "top_heap_mb"
          (Output.json_float (Gc_meter.top_heap_mb ()));
      ]
    ~correct:(failed = 0 && deterministic)
    ~attempted:(Cycle.arrivals spec * List.length cycles)
    ~failed
    [
      ("ns_per_trigger", ns_per_trigger, "ns");
      ("words_per_trigger", words_per_trigger, "words");
      ("setup_s", setup_s, "s");
      ( "live_heap_mb",
        List.fold_left (fun acc c -> Float.max acc c.Cycle.live_heap_mb) 0.0 cycles,
        "MB" );
      ("completed_frac", float_of_int completed /. arrivals, "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: horse_perf.exe --workload \
     warm-storm|pull-blackout|parked-fleet|nfv-chain --seed N --seconds S \
     --trace 0|1 [--shards K] [--spans FILE]";
  exit 2

let () =
  Gc_meter.configure ();
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and shards = ref None and spans = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match List.assoc_opt w W.kinds with
      | Some k -> workload := Some k
      | None -> usage ());
      parse rest
    | "--seed" :: n :: rest ->
      seed := Some (int_arg n);
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := Some (int_arg n);
      parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      trace := Some (v = "1");
      parse rest
    | "--shards" :: n :: rest ->
      shards := Some (int_arg n);
      parse rest
    | "--spans" :: path :: rest ->
      spans := Some path;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some kind, Some seed, Some seconds, Some trace ->
    if seconds < 1 || seed < 0 then usage ();
    let cores = Domain.recommended_domain_count () in
    let spec = W.spec ~kind ~seed ~cores ~traced:trace in
    let spec =
      match !shards with
      | Some k when k >= 1 -> { spec with W.shards = k }
      | Some _ -> usage ()
      | None -> spec
    in
    if trace then Traced.report spec ~spans:!spans ~untraced:(fun () -> Cycle.cycle spec)
    else end_to_end spec ~seconds:(float_of_int seconds)
  | _ -> usage ()
