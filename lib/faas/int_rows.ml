(* Append-only rows of [width] ints in fixed-size chunks.  The first
   chunk doubles (copying) up to [chunk_rows] rows, so small stores
   stay small; past that, each full chunk is followed by a fresh one
   and nothing is ever copied again.  A doubling store would leave
   every outgrown column behind as major-heap garbage, which on a run
   that never triggers a major slice survives to the end of the run.

   Row [i] lives in chunk [i lsr chunk_bits] at offset
   [width * (i land chunk_mask)]: row-major, so one row's fields share
   a cache line. *)

let chunk_bits = 10

let chunk_rows = 1 lsl chunk_bits

let chunk_mask = chunk_rows - 1

type t = {
  width : int;
  mutable chunks : int array array;  (* [used] filled, the rest [||] *)
  mutable used : int;
  mutable len : int;
}

let first_rows = 64

let create ~width =
  if width < 1 then invalid_arg "Int_rows.create: width < 1";
  {
    width;
    chunks = [| Array.make (width * first_rows) 0 |];
    used = 1;
    len = 0;
  }

let length t = t.len

let add_chunk t =
  if t.used = Array.length t.chunks then begin
    let dir = Array.make (2 * t.used) [||] in
    Array.blit t.chunks 0 dir 0 t.used;
    t.chunks <- dir
  end;
  t.chunks.(t.used) <- Array.make (t.width * chunk_rows) 0;
  t.used <- t.used + 1

let append t =
  let i = t.len in
  let c = i lsr chunk_bits in
  if c = 0 then begin
    let first = t.chunks.(0) in
    if t.width * i = Array.length first then begin
      let grown = Array.make (2 * Array.length first) 0 in
      Array.blit first 0 grown 0 (Array.length first);
      t.chunks.(0) <- grown
    end
  end
  else if c = t.used then add_chunk t;
  t.len <- i + 1;
  i

let get t i col =
  t.chunks.(i lsr chunk_bits).((t.width * (i land chunk_mask)) + col)

let set t i col v =
  t.chunks.(i lsr chunk_bits).((t.width * (i land chunk_mask)) + col) <- v

let clear t = t.len <- 0
