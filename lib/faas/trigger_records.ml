module Time = Horse_sim.Time_ns

(* Store for completed-invocation records: seven int fields per row
   (virtual time is integer nanoseconds, function names are interned
   ids, start modes are dense codes) in {!Int_rows} chunks, addressed
   by slot.  Appending writes seven ints — nothing is boxed, so a
   100M-trigger run costs 7 words/record flat instead of a cons +
   record + string per trigger, and growing never copies a full chunk.

   Handles pack (generation, slot) into one immediate int, like the
   event-queue and run-queue arenas: [clear] bumps the generation, so
   a handle kept across a reset raises instead of silently reading a
   recycled slot. *)

let f_fn_id = 0

let f_mode = 1

let f_triggered_at = 2

let f_init = 3

let f_exec = 4

let f_preemption = 5

let f_completed_at = 6

let width = 7

type t = { rows : Int_rows.t; mutable generation : int }

type handle = int

let gen_bits = 20

let gen_mask = (1 lsl gen_bits) - 1

let create () = { rows = Int_rows.create ~width; generation = 0 }

let length t = Int_rows.length t.rows

let append t ~fn_id ~mode ~triggered_at ~init ~exec ~preemption ~completed_at =
  let r = t.rows in
  let i = Int_rows.append r in
  Int_rows.set r i f_fn_id fn_id;
  Int_rows.set r i f_mode mode;
  Int_rows.set r i f_triggered_at (Time.to_ns triggered_at);
  Int_rows.set r i f_init (Time.span_to_ns init);
  Int_rows.set r i f_exec (Time.span_to_ns exec);
  Int_rows.set r i f_preemption (Time.span_to_ns preemption);
  Int_rows.set r i f_completed_at (Time.to_ns completed_at);
  (i lsl gen_bits) lor t.generation

let clear t =
  Int_rows.clear t.rows;
  t.generation <- (t.generation + 1) land gen_mask

let check t i =
  if i < 0 || i >= length t then
    invalid_arg "Trigger_records: slot out of range"

let field t i f =
  check t i;
  Int_rows.get t.rows i f

let fn_id t i = field t i f_fn_id

let mode_code t i = field t i f_mode

let triggered_at t i = Time.of_ns (field t i f_triggered_at)

let init t i = Time.span_ns (field t i f_init)

let exec t i = Time.span_ns (field t i f_exec)

let preemption t i = Time.span_ns (field t i f_preemption)

let completed_at t i = Time.of_ns (field t i f_completed_at)

let total_ns t i = field t i f_init + field t i f_exec + field t i f_preemption

let slot t h =
  if h land gen_mask <> t.generation then
    invalid_arg "Trigger_records.slot: stale handle (arena was cleared)";
  let i = h lsr gen_bits in
  check t i;
  i

let iter t f =
  for i = 0 to length t - 1 do
    f i
  done

let fold t ~init:acc ~f =
  let acc = ref acc in
  for i = 0 to length t - 1 do
    acc := f !acc i
  done;
  !acc
