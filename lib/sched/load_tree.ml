(* Implicit layout over [2n] slots: leaf [i] sits at slot [n + i] and
   slot [k] in [1, n) holds the winner of slots [2k] and [2k + 1], so
   slot 1 is the root for any [n].  A slot holds a leaf index, or -1
   for an absent leaf (or a subtree with none present).  Ties break on
   the leaf index itself, which makes the winner independent of the
   shape. *)
type t = {
  n : int;
  trackers : Load_tracking.t array;
  lengths : int array;
  win : int array;
}

let create n =
  if n < 0 then invalid_arg "Load_tree.create: negative size";
  let dummy = Load_tracking.create () in
  {
    n;
    trackers = Array.make n dummy;
    lengths = Array.make n 0;
    win = Array.make (2 * n) (-1);
  }

let size t = t.n

(* [a] strictly precedes [b]: lighter, then shorter, then lower. *)
let precedes t a b =
  let c = Load_tracking.compare_load t.trackers.(a) t.trackers.(b) in
  c < 0
  || (c = 0
     && (t.lengths.(a) < t.lengths.(b)
        || (t.lengths.(a) = t.lengths.(b) && a < b)))

let pick t a b =
  if a < 0 then b else if b < 0 then a else if precedes t b a then b else a

(* Recompute the slots above leaf [i], whose key (or presence)
   changed.  Once a slot's winner is unchanged and is not [i], nothing
   above it can change: that winner's key is the same, and so is every
   other input of the slots above. *)
let update_path t i =
  let k = ref ((t.n + i) lsr 1) and continue = ref true in
  while !continue && !k >= 1 do
    let slot = !k in
    let old = t.win.(slot) in
    let w = pick t t.win.(2 * slot) t.win.((2 * slot) + 1) in
    t.win.(slot) <- w;
    if w = old && w <> i then continue := false;
    k := slot lsr 1
  done

let check t i name =
  if i < 0 || i >= t.n then invalid_arg ("Load_tree." ^ name ^ ": bad leaf")

let attach t i tracker ~length =
  check t i "attach";
  t.trackers.(i) <- tracker;
  t.lengths.(i) <- length;
  t.win.(t.n + i) <- i;
  update_path t i

let detach t i =
  check t i "detach";
  t.win.(t.n + i) <- -1;
  update_path t i

let refresh t i ~length =
  if t.win.(t.n + i) >= 0 then begin
    t.lengths.(i) <- length;
    update_path t i
  end

let argmin t = if t.n = 0 then -1 else t.win.(1)
