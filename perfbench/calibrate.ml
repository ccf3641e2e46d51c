(* Host-speed calibration.

   On a shared host the same code runs up to ~25% slower for tens of
   seconds at a time (frequency, SMT siblings, neighbours' cache use),
   which no amount of repetition inside one 10 s run averages out.  A
   fixed kernel of the same kinds of work the simulator does (hashing,
   sorting, short-lived allocation) is timed around every cycle, and
   times are reported as they would read on a host where the kernel
   takes [nominal_ns].  The kernel is the benchmark's own code, so a
   change to the library never moves it. *)

let nominal_ns = 50_000_000

let kernel () =
  let h = Hashtbl.create 1024 in
  let st = ref 12345 in
  for i = 0 to 100_000 do
    st := ((!st * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace h (!st land 0xffff) i
  done;
  let a = Array.init 100_000 (fun i -> (i * 7919) land 0xfffff) in
  Array.sort compare a;
  let l = ref [] and longest = ref 0 in
  for i = 0 to 150_000 do
    l := (i, a.(i mod 100_000)) :: !l;
    if i land 1023 = 0 then begin
      longest := max !longest (List.length !l);
      l := []
    end
  done;
  Hashtbl.length h + a.(0) + !longest

(* Wall ns of one kernel run. *)
let kernel_ns () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (kernel ()));
  Clock.now_ns () - t0

(* The factor that turns a time measured now into nominal-host time. *)
let speed ~kernel_ns = float_of_int nominal_ns /. float_of_int kernel_ns
