(* One measured cycle of the untraced run: fresh set-ups, then the run
   phase exactly as a user drives it, then the output checks. *)

module W = Workload

type cycle = {
  setups_s : float list;  (** every set-up of the cycle *)
  run_ns : int;
  kernel_ns : int;  (** calibration kernel, mean of before and after *)
  run_words : float;  (** minor words, every domain *)
  live_heap_mb : float;  (** major heap after the run, compacted *)
  results : W.results array;  (** per replica *)
  checked : W.checked array;
}

let arrivals spec = spec.W.arrivals * spec.W.replicas

(* Set-up is short next to the run on most workloads, so a cycle sets
   up the workload's clusters several times (until ~50 ms of set-up
   has been timed, at most 8) and runs the last set.  The heap is
   compacted before every set-up so each starts from the same state. *)
let setup_budget_s = 0.05
let max_setups = 8

let timed_setup spec =
  Gc.compact ();
  let t0 = Clock.now_ns () in
  let insts = Array.init spec.W.replicas (fun r -> W.setup W.untraced (W.replica spec r)) in
  (insts, Clock.seconds (Clock.now_ns () - t0))

let cycle spec =
  Gc.compact ();
  let k0 = Calibrate.kernel_ns () in
  let rec setups acc =
    let insts, s = timed_setup spec in
    let acc = s :: acc in
    if
      List.length acc >= max_setups
      || List.fold_left ( +. ) 0.0 acc >= setup_budget_s
    then (insts, acc)
    else setups acc
  in
  let insts, setups_s = setups [] in
  let shards = spec.W.shards in
  let w0 = Gc_meter.domain_words ~shards in
  let t0 = Clock.now_ns () in
  let results = Array.map W.run insts in
  let t1 = Clock.now_ns () in
  let w1 = Gc_meter.domain_words ~shards in
  (* what the run leaves live (record arenas, pools, cluster state):
     unlike the peak heap, it does not depend on when the major GC of
     two domains happened to finish *)
  Gc.compact ();
  let live_heap_mb = Gc_meter.heap_mb () in
  let k1 = Calibrate.kernel_ns () in
  {
    setups_s;
    run_ns = t1 - t0;
    kernel_ns = (k0 + k1) / 2;
    run_words = w1 -. w0;
    live_heap_mb;
    results;
    checked = Array.map2 W.check insts results;
  }

let violations c = Array.fold_left (fun acc k -> acc + k.W.violations) 0 c.checked
let completed c = Array.fold_left (fun acc r -> acc + r.W.completed) 0 c.results
let digests c = Array.map (fun k -> k.W.digest) c.checked
