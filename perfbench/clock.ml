(* Host monotonic clock in integer nanoseconds; allocation-free, so it
   can bracket code whose allocation is being counted. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9
