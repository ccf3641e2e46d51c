(* Printing results: one JSON object as the last line of stdout. *)

module W = Workload

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let json_string s = Printf.sprintf "%S" s

(* Human-readable lines first (a [# meta] line, then one line per
   metric with its unit), then the result as the last line. *)
let result ~meta ?(extra = []) ~correct ~attempted ~failed metrics =
  print_endline ("# meta " ^ meta);
  List.iter
    (fun (name, value, unit) ->
      Printf.printf "%-44s %18s %s\n" name (json_float value) unit)
    metrics;
  List.iter print_endline extra;
  let body =
    String.concat ", "
      (List.map
         (fun (name, value, unit) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float value) (json_string unit))
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

(* What a number depends on: host, compiler, GC settings, seed, shards
   and the workload's size; plus the raw run wall and calibration
   kernel time of every measured cycle, so the record shows how much
   the numbers spread inside a run. *)
let meta spec ~run_ns ~kernel_ns =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"shards\": %d, \"servers\": %d, \
     \"parked\": %d, \"ull_count\": %d, \"arrivals\": %d, \"sim_duration_s\": \
     %g, \"host_cores\": %d, \"ocaml\": %s, \"gc\": {\"minor_heap_words\": \
     %d, \"space_overhead\": %d}, \"cycles\": %d, \"run_ns\": [%s], \
     \"kernel_ns\": [%s], \"kernel_nominal_ns\": %d}"
    (json_string (W.name_of spec.W.kind))
    spec.W.seed spec.W.shards spec.W.servers spec.W.parked spec.W.ull_count
    spec.W.arrivals
    (Horse_sim.Time_ns.span_to_ms spec.W.duration /. 1e3)
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version)
    (Gc.get ()).Gc.minor_heap_size (Gc.get ()).Gc.space_overhead
    (List.length run_ns)
    (String.concat ", " (List.map string_of_int run_ns))
    (String.concat ", " (List.map string_of_int kernel_ns))
    Calibrate.nominal_ns
